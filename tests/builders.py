"""Test-side builders of small stock monoids."""

from monoidgeo import FiniteGroup, SpecValidationError


def cyclic_group(n: int, gen: str = "g") -> FiniteGroup:
    """Z/n with the single generator `gen`; element names e, g, g2, ..."""
    if n < 1:
        raise SpecValidationError("cyclic group order must be >= 1")
    names = ["e"] + ([gen] if n > 1 else []) + [f"{gen}{k}" for k in range(2, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [gen] if n > 1 else []
    return FiniteGroup(names, table, identity="e", generators=gens, name=f"Z{n}")
