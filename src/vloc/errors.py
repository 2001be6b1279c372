"""Exception types shared across the package."""


class VlocError(Exception):
    """Base class for all vloc-specific errors."""


class FrameTooSmallError(VlocError):
    """A frame offered fewer than two descriptors, so the ratio test is undefined."""


class EmptyCandidatesError(VlocError):
    """Window and exclusion filtering left no frames to match against."""


class NoMatchError(VlocError):
    """No query keypoint passed both match criteria against any candidate."""


class IngestError(VlocError):
    """A dataset could not be converted into a database."""


class DatabaseFormatError(VlocError):
    """A serialized database or descriptor file is malformed."""


class SingularInnovationError(VlocError):
    """The innovation variance is not positive, so the filter cannot weigh a measurement."""
