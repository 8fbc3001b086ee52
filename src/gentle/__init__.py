"""Combinatorics of complexes of projectives over gentle algebras."""

from .core import (Arrow, GentleReport, NotComposable, Path, Presentation,
                   PresentationError, compose, dim_projective, left_action,
                   maximal_path, other_maximal_path, parse_presentation,
                   path_basis, validate_gentle)
from .walks import (GBA, GST, BarDescriptor, Enumeration, GenWalk, Letter,
                    canonical_band, classify_walk, enumerate_gba, enumerate_gst,
                    glue_bar, inverse_walk, is_derived_discrete,
                    longest_walk_arrows, parse_walk, rotate_walk,
                    shorten_letter, trivial_walk)
from .complexes import (ProjComplex, Summand, band_complex, complex_to_json,
                        differential_matrix, shift, string_complex)
from .cohomology import (CohVector, band_sums, beta_cohomology, beta_window,
                         cohomology_dims, node_contributions, node_sums)
from .nogaps import (ReductionError, ReductionTrace, SpectrumReport, Witness,
                     band_witness, beta_witness, hl_spectrum, reduce_witness,
                     stalk_witness, string_witness, witness_family)
from .demo import A0_SOURCE, load_builtin, verify_counterexample_a0

__all__ = [name for name in dir() if not name.startswith("_")]
