"""coordinet: rate bounds and exact small-block protocol simulation for
coordinating two nodes through a relay."""

from .pmf import (Alphabet, AlphabetMismatch, ConditionalPmf, JointPmf,
                  NegativeMass, NonFiniteMass, NotNormalized, PmfError,
                  StateSpaceTooLarge, UnknownVariable, make_joint, read_pmf, write_pmf)
from .information import (OptimizerFailed, WynerConfig, WynerSolution,
                          entropy, mutual_information, wyner_common_information)
from .region import (FrontierPoint, InnerCoupling, OuterCoupling, RateTuple,
                     RegionDecision, SearchConfig, canonical_couplings, frontier,
                     inner_membership, outer_membership)
from .fme import (EquivalenceReport, LinearSystem, binning_constraint_system, fme_eliminate,
                  projection_matches_rate_system, systems_equivalent, theorem_rate_system)
from .osrb import (BinningCode, InducedLaw, ProtocolConfig, SequenceSpace,
                   bins_from_rate, make_binning, osrb_uniformity, run_protocol,
                   sweep)

__version__ = "0.1.0"
