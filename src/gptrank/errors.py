"""Exception types shared across the package."""


class GptRankError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(GptRankError, ValueError):
    """Invalid, inconsistent, or mismatched parameters."""


class DecodeFailure(GptRankError):
    """No codeword was found within the decoding radius.

    ``stage`` names the failed step: span, locations, radius, codeword, row_scrambler or packing.
    """

    def __init__(self, message: str, stage: str):
        super().__init__(message)
        self.stage = stage


class FormatError(GptRankError):
    """A key, ciphertext, or message file is malformed or corrupted."""
