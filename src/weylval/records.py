"""`Record`: value semantics for the package's small frozen records.

A subclass lists its fields in `__slots__` and writes its own `__init__`;
it then equals another instance of the same class whose fields are equal,
hashes by those fields, and prints them in its `repr`.  The field getter is
built once per class, when the class is made.

`GammaResolution` takes only the `repr` from it: its equality leaves the
descriptor and the cache of deeper roots out.  `WeylElement`, whose hash
is taken once and kept, and `evaluate.SumInverse`, whose equality leaves
`rho` out, are not records.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
