"""Exact Clifford-algebra models of the compact spin subalgebras of the E series.

The package constructs exactly the Lie subalgebra generated inside a
positive definite Clifford algebra by the bivector and trivector spin
generators, and machine-checks every finite claim about it: closure
bases, mod-4 binomial dimension counts, the period-8 matrix-algebra
tables, defining relations, Killing definiteness, rank certificates,
the top-blade eigenspace split, and positive-root counts.  Every command
works on ints and bitsets and makes no Fraction.

``import enspin`` loads no submodule: each public name below is
imported from its submodule on first use (PEP 562) and then cached on
the package.  run_verification is enspin.report's and algebra_table
enspin.table's, so the summary table loads none of the verify
pipeline.  The names are the verifier's, and none of them imports
numpy: a closure is one Python int of 2^n bits (2 MiB at n = 24), and
every check reads it with int operations.  The independent test
oracles (the dense blade table, the mod-p rank probe and the exact
Killing test) are imported from enspin.oracles, which loads
enspin.linalg; the numpy ones import numpy when they are called.  The
multivector engine, with its Fraction coefficients, is
enspin.multivector.  No command loads enspin.oracles,
enspin.multivector or enspin.linalg.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "ClassificationResult", "SplitResult", "analyze", "classify", "split_check",
    ),
    "bott": (
        "CompactTypeDescriptor", "MatrixAlgebraDescriptor", "bott_algebra",
        "closure_type", "max_compact",
    ),
    "clifford": ("Blade", "blade_product", "blades_anticommute"),
    "closure": ("ClosureBasis", "blade_closure", "lemma_containment_check"),
    "deltas": ("delta_closed", "delta_identities", "delta_sum", "lower_bound_dim"),
    "multivector": ("Multivector", "bracket", "format_multivector", "mv_product"),
    "report": ("VerificationReport", "run_verification"),
    "roots": ("RootSet", "positive_roots", "theorem_b_check"),
    "spinrep": (
        "SpinGenerators", "cartan_matrix", "spin_generators", "verify_relations",
    ),
    "table": ("algebra_table",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def _forwarding_getattr(namespace: dict, module_of: dict[str, str]):
    """A PEP 562 __getattr__ for the module whose globals are namespace.

    It reads name from the enspin submodule module_of[name], importing
    that on first use, and caches it in namespace.

    Deferred imports follow one rule: a function that alone needs a layer
    imports it in its body, and a module forwards a name here only when a
    frozen file (the acceptance gate or the benchmark tracer) reaches that
    name through the module.  Such a table is called _FORWARDED, and a
    test ties it to exactly those readers.
    """
    def __getattr__(name: str):
        try:
            module = module_of[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _forwarding_getattr(globals(), _MODULE_OF)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
