"""Face identification with complete graphs over SIFT keypoints.

Pipeline: load a grayscale image, equalize it, extract scale-space
keypoints with 128-value descriptors, treat each image as the complete
graph over its keypoints, and score gallery/probe pairs by combining
vertex (descriptor) and edge (relative geometry) dissimilarities under
either a gallery-image-based or a reduced-point (one-to-one) match
constraint. Evaluation follows a two-group verification protocol with
prior EER, threshold transfer, and weighted error rates.
"""

from .errors import GraphSiftError
from .evaluation import ProtocolResult, run_protocol
from .facegraph import FaceGraph, build_graph
from .imageio import GrayImage, histogram_equalize, load_image
from .matcher import Constraint, MatchScore, identify, match
from .sift import Keypoints, extract_features
from .store import GalleryDb, load, save

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "FaceGraph",
    "GalleryDb",
    "GrayImage",
    "GraphSiftError",
    "Keypoints",
    "MatchScore",
    "ProtocolResult",
    "build_graph",
    "extract_features",
    "histogram_equalize",
    "identify",
    "load",
    "load_image",
    "match",
    "run_protocol",
    "save",
]
