"""With REPLAY_RECORD=FILE set, record every `cli.main` call to FILE (see
`replay.py`); without it, this file does nothing."""

import os

if os.environ.get("REPLAY_RECORD"):
    import replay

    replay.install_recorder(os.environ["REPLAY_RECORD"])
