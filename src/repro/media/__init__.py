"""Physical media models: 3D-XPoint and the AIT cache."""

from repro.media.ait import AitCache, AitConfig
from repro.media.xpoint import XPointMedia

__all__ = [
    "AitCache",
    "AitConfig",
    "XPointMedia",
]
