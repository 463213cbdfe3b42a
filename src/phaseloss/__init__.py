"""Precision limits and probe optimization for joint optical phase and
transmissivity estimation on lossy bosonic modes."""

__version__ = "0.1.0"

from .bounds import (FundamentalLimits, KrausGauge, fundamental_limits,
                     phase_qnd_bound, probe_incomp_bound)
from .channel import (BlockDensity, ChannelParams, ChannelPoints, FockProbe,
                      KrausFamily, Scenario, apply_channel,
                      apply_channel_derivatives, beamsplitter_sector,
                      binomial_loss_coeff, build_kraus, probe_statistics)
from .errors import (DegenerateChannel, InvalidInput, InvalidState,
                     SingularInformation, Unsupported)
from .gaussian import (EnergySplit, EvolvedGaussian, GaussianProbeSpec,
                       GaussianState, ProbeFamily, Regime, asymptotic_limits,
                       evolve, evolve_with_derivatives, evolved_qfi,
                       fock_truncation, gaussian_qfi, make_probe, mix_modes,
                       photon_moments, spec_from_split)
from .iss import IssConfig, IssResult, build_m_matrix, channel_slds, optimize
from .linalg import hermitianize, solve_sld
from .measurement import (BlockDiagonals, DetectionScheme, MomentSet, SchemeKind,
                          block_diagonals, counting_moments, error_propagation,
                          half_photon_counting, homodyne_moments,
                          output_transform, scheme_incompatibility)
from .qfi import (QfiReport, channel_report, complete_report, hcrb_upper,
                  meas_quantifiers, probe_quantifier, pure_block_report,
                  qfi_matrix, scalar_crb)
