"""Combinatorics of complexes of projectives over gentle algebras."""

from .core import (Arrow, GentleReport, NotComposable, Path, Presentation,
                   PresentationError, compose, dim_projective, left_action,
                   maximal_path, other_maximal_path, parse_presentation,
                   path_basis, validate_gentle)
from .walks import (GBA, GST, BarDescriptor, Enumeration, GenWalk, Letter,
                    canonical_band, canonical_string, classify_walk,
                    enumerate_gba, enumerate_gst, glue_bar, inverse_walk,
                    is_derived_discrete, is_string, longest_walk_arrows,
                    parse_walk, rotate_walk, shorten_letter, trivial_walk,
                    truncate_first, truncate_last)
from .complexes import (ProjComplex, Summand, band_complex, brutal_truncate,
                        check_minimal, complex_to_json, differential_matrix,
                        shift, string_complex)
from .cohomology import (CohVector, band_sums, beta_cohomology, beta_window,
                         cohomology_dims, node_contributions, node_sums)
from .nogaps import (A0_SOURCE, ReductionError, ReductionTrace,
                     SpectrumReport, Witness, band_witness, beta_witness,
                     hl_spectrum, load_builtin, reduce_witness, stalk_witness,
                     string_witness, verify_counterexample_a0, witness_family)

__all__ = [name for name in dir() if not name.startswith("_")]
