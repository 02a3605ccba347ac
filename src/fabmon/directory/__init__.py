from fabmon.directory.registry import InvalidTTL, Registry, RegistryEntry  # noqa: F401
from fabmon.directory.service import CacheCell, DirectoryService  # noqa: F401
