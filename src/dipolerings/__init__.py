"""Collective radiative modes and excitation transfer in dipole-coupled emitter rings."""

from .emfield import GAMMA0, K0, PairCoupling, SingularityError, green_tensor, pair_coupling, unit_dipole
from .fieldmap import GridSpec, IntensityMap, intensity_map
from .geometry import EmitterArray, RingMeta, build_chain, build_ring, build_two_rings, ring_radius
from .spectrum import (ModeSpectrum, assemble_heff, canonical_m_range, chain_spectrum,
                       eigenmodes, light_line_threshold, min_decay_scan, ring_spectrum,
                       spin_wave_state, wrap_m)
from .transfer import (FidelityScan, FidelityTrace, Propagation, RingRingCoupling,
                       default_horizon, eta_map, farthest_site, fidelity_scan,
                       fidelity_trace, gaussian_packet, propagate, ring_ring_coupling)

__version__ = "0.1.0"
