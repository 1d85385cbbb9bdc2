"""liedef: exact computational Lie theory for o-minimal definability questions.

The package decides, over the exact scalar tower Q < Q(i), whether a connected
Lie group presented by Lie-algebra structure constants is Lie-isomorphic to a
group definable in an o-minimal expansion of the real field, and it produces
algebraic certificates (ideal flags, triangular-by-compact splittings, faithful
representations, torus equations) that a small verifier can re-check.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    LieDefError,
    InputError,
    NotSolvableError,
    NotNilpotentError,
    PreconditionError,
    NotSupersolvableError,
    UnsupportedError,
    InternalCheckError,
    Indeterminate,
)

from .scalars import GaussRat, rat  # noqa: F401
from .linalg import Mat  # noqa: F401
from .poly import Poly  # noqa: F401
from .lie import LieAlgebra, from_matrices  # noqa: F401
from .structure import (  # noqa: F401
    LeviDecomposition,
    commuting_levi,
    levi_subalgebra,
    nilradical,
    radical,
)
from .weights import (  # noqa: F401
    WeightTable,
    adjoint_weights,
    module_weights,
    weight_flag,
)
from .definability import (  # noqa: F401
    DefinabilityVerdict,
    GroupPresentation,
    NonRealWitness,
    SupersolvableResult,
    TbcCertificate,
    TbcObstruction,
    TbcResult,
    definability_oracle,
    supersolvable_test,
    tbc_find,
    tbc_verify,
)
from .reps import (  # noqa: F401
    GroupRepData,
    Representation,
    extend_rep,
    is_unipotent,
    nilpotent_ado,
    quotient_rep,
    supersolvable_triangular_rep,
    verify_rep,
)
from .torus import TorusClosure, TorusWeights, torus_zariski_closure  # noqa: F401
from .formats import (  # noqa: F401
    algebra_from_dict,
    algebra_hash,
    algebra_to_dict,
    load_algebra_file,
    save_algebra_file,
)
from .certs import (  # noqa: F401
    CertReport,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from .corpus import CorpusEntry, corpus, corpus_entry  # noqa: F401
