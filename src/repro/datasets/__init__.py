"""Dataset builders reproducing the paper's Tables 1 and 2.

Real datasets (Facebook, DBLP, Pokec, Adult, FourSquare) are unavailable
offline; each has a synthetic *-like* substitute matching the published
sizes, densities and group mixes (DESIGN.md §6). The RAND datasets are
faithful re-implementations of the paper's own synthetic generators.
"""

from repro.datasets.adult import adult_like_points
from repro.datasets.foursquare import foursquare_like
from repro.datasets.paper_example import figure1_instance, lemma32_instance
from repro.datasets.registry import DATASETS, load_dataset
from repro.datasets.social import dblp_like, facebook_like, pokec_like
from repro.datasets.synthetic import rand_fl_points, rand_graph

__all__ = [
    "DATASETS",
    "adult_like_points",
    "dblp_like",
    "facebook_like",
    "figure1_instance",
    "foursquare_like",
    "lemma32_instance",
    "load_dataset",
    "pokec_like",
    "rand_fl_points",
    "rand_graph",
]
