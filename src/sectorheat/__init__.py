"""sectorheat: a numerical laboratory for the semilinear heat equation
u_t = Lap u + a|u|^alpha u with anti-symmetric singular initial data."""

from .geometry import (AXIS_ANTISYM, AXIS_PERIODIC, AXIS_SYM, Field,
                       GridSpec, SectorSpec, field_from_profile)
from .profiles import (ConstantProfile, CustomProfile,
                       GaussianDerivativeProfile, LogBlockModulation,
                       ModulatedProfile, Psi0Profile, SinSquaredLog,
                       eval_gaussian_derivative, eval_psi0,
                       leading_constant)
from .semigroup import (KernelPlan, PsiCache, alpha_time_integral,
                        apply_kernel, apply_spectral, build_psi_cache,
                        linear_sup, load_cache, psi_fast, psi_sup,
                        psi_values, save_cache)

__version__ = "0.1.0"
