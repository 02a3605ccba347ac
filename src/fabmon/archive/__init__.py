from fabmon.archive.store import (  # noqa: F401
    AppendResult,
    InvalidRange,
    MemoryStore,
)
from fabmon.archive.filestore import FileSegmentStore  # noqa: F401
from fabmon.archive.importer import Importer  # noqa: F401
from fabmon.archive.retention import RetentionPolicy, SweepResult, retention_sweep  # noqa: F401
