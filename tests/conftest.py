"""With REPLAY_RECORD=FILE set, record every `cli.main` call to FILE (`identity.py record`)."""

import os

if os.environ.get("REPLAY_RECORD"):
    import identity

    identity.install_recorder(os.environ["REPLAY_RECORD"])
