"""A terminating transaction scripting language with a linear type system.

Scripts describe block-chain states: resources at addresses plus pending
transactions. Well-typed scripts normalize to a ledger-like assignment of
currency to addresses. A companion module composes whole chains of blocks
when (or by making sure that) their address spaces are isolated.
"""
import importlib

# Each public name, by the sub-module that defines it. A name is imported on
# first use (PEP 562), so a program pays only for the layers it touches.
_EXPORTS = {
    "chains": """
        Block Chain RewireResult Transfer addresses blockwise_isolated chain_from_json
        chain_to_json chain_to_program compose_rewire compose_verify isolated
    """,
    "errors": """
        BranchContextMismatchError DualityError FuelExhausted HeightMismatch
        IsolationError LlbcError NonLinearAddressError NotInLedgerForm ParseError
        PromotionContextError TypeCheckError TypeMismatchError
    """,
    "parser": "parse_expression parse_program parse_script parse_type render",
    "reduce": "Ledger NormalizeResult Redex find_redexes normalize readback_ledger step",
    "syntax": """
        Addr Address Atom Bang Choose Conn Contract Dispose Dual Expression Inl Inr Iso
        LinearType OfCourse Par Plus Program SourceSpan Store Tensor Transaction Unit
        With WhyNot alpha_equivalent desugar_obligation dual dualize_expr free_addresses
        node_count rename unit_multiset
    """,
    "typecheck": "TypeContext TypedJudgment check check_expression replay",
    "units": "DEFAULT_UNITS active_units load_units",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
