"""Record, the one frozen base class of germkit's values but `Polynomial`.

Results, queries, `TruncatedSeries` and the parser's tokens are Records;
only `Polynomial` keeps slots of its own, for speed.  A subclass lists its
fields as class annotations, in order; a class value is the field's default.
Each subclass gets one generated `__init__` (which calls `__post_init__`
when the class defines one), and every record is immutable, prints as
`Name(field=value, ...)`, compares equal to a record of the same class with
equal fields, and hashes by its fields.  A copy or a pickle is rebuilt
through the constructor, so `__post_init__` checks it again.  `_fields` and
`_replace` are named as in `collections.namedtuple`.  A subclass's module
must start with `from __future__ import annotations`: fields are read from
the class's own `__annotations__`, which Python 3.14 and later keep behind
`__annotate__` otherwise, so such a class is refused.  It stands in for
`frozen=True` dataclasses: importing `dataclasses` (which loads inspect, ast
and dis) and generating six methods per class took about a sixth of the
run time of a CLI command.
"""


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "__annotations__" not in own and ("__annotate__" in own or "__annotate_func__" in own):
            raise TypeError(f"{cls.__qualname__}: a Record's module needs "
                            "'from __future__ import annotations'")
        cls._fields = names = tuple(own.get("__annotations__", ()))
        # a default after a field without one is a SyntaxError here, as in a def
        params = [f"{name}=__cls.{name}" if name in own else name for name in names]
        # the instance dict is written directly: __setattr__ refuses every write
        lines = [f"def __init__(__self, {', '.join(params)}):", " __d = __self.__dict__"]
        lines += [f" __d[{name!r}] = {name}" for name in names]
        if hasattr(cls, "__post_init__"):
            lines.append(" __self.__post_init__()")
        scope = {"__cls": cls}
        exec("\n".join(lines), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A copy of this record with the named fields changed."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
