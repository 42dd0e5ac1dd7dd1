"""Exception types shared across the package."""


class ObjSearchError(Exception):
    """Base class for all package errors."""


class SchemaError(ObjSearchError):
    """A document does not conform to its schema (bad type, unknown key, missing field)."""


class ValidationError(ObjSearchError):
    """A structurally valid document violates a semantic invariant."""


class DomainError(ObjSearchError):
    """An operation was called with inputs outside its domain."""


class EmbeddingLookupError(ObjSearchError):
    """A phrase or word has no usable entry in an embedding store."""


class NoPathError(ObjSearchError):
    """The goal cell is unreachable or not traversable."""


class GenerationError(ObjSearchError):
    """Procedural scenario generation could not satisfy a placement constraint."""


class AssetError(ObjSearchError):
    """A required asset file is missing or unreadable."""
