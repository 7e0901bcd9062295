"""Three-dimensional Lie algebra families with almost paracontact almost
paracomplex Riemannian structure: constructors, closed-form matrix group
exponentials by one formula per family, and classification through the
Levi-Civita connection of the left-invariant orthonormal metric."""

from .expengine import (
    ExpResult,
    closed_form,
    para_sasakian_group,
)
from .levicivita import (
    ConnectionCoeffs,
    NotALieAlgebraError,
    classify_manifold,
    connection_coeffs,
    f_tensor,
)
from .lie import (
    StructureConstants,
    adjoint_rep,
    class_algebra,
    jacobi_defect,
    structure_constants,
)
from .mat3 import (
    Mat3,
    Vec3,
    expm_oracle,
)
from .structure import (
    CLASS_IDS,
    TWO_PARAMETER_CLASSES,
    ClassParams,
    ClassReport,
    FTensor,
    LeeForms,
    PhiBasisStructure,
    check_structure,
    standard_structure,
)

__version__ = "0.1.0"
