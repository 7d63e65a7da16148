"""A JSON Schema (draft 2020-12) checker for the keywords the shipped
scene schema uses, with jsonschema's messages and choice of error.

`SchemaChecker(schema)` compiles a schema once. It interprets `type`,
`const`, `enum`, `properties`, `additionalProperties` (a boolean),
`required`, `items`, `minItems`, `maxItems`, `minimum`,
`exclusiveMinimum`, `exclusiveMaximum`, `oneOf`, `allOf`, `if`/`then` and
`$ref` to `#/$defs/<name>`, and skips the annotations `$schema`, `$id`,
`title` and `description`. Any other keyword, or a value of a form it
does not interpret, raises `ConfigError` when the schema is compiled, so
the schema cannot grow a rule that the checker silently ignores.

Draft 2020-12 semantics: a bool is neither a number nor an integer, an
integral float such as 40.0 is an integer, and `const` and `enum`
compare with bools distinct from 0 and 1. Each violation carries the
message jsonschema 4.26 gives it, its keyword and its instance path, and
`best_error` picks the one that jsonschema's `best_match` picks: the
shallowest path, then the larger path, a keyword other than `oneOf`, an
instance that does not match its subschema's `type`; and from a `oneOf`
error, its least relevant branch error unless two tie.
"""

from __future__ import annotations

import heapq
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import ConfigError

#: keywords that describe a schema and constrain nothing
ANNOTATIONS = frozenset(["$schema", "$id", "title", "description"])

#: `best_match` prefers any other keyword to these at the same path
_WEAK = frozenset(["oneOf"])

_TYPES: dict[str, Callable[[object], bool]] = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


@dataclass(eq=False)
class Violation:
    """One failed keyword: its message, the keyword, the instance path,
    the (sub)schema holding the keyword and the instance it checked; a
    `oneOf` violation holds its branches' violations as `context`."""

    message: str
    keyword: str
    path: tuple
    schema: dict
    instance: object
    context: list = field(default_factory=list)

    def matches_type(self) -> bool:
        expected = self.schema.get("type")
        if expected is None:
            return False
        names = [expected] if isinstance(expected, str) else expected
        return any(_TYPES[name](self.instance) for name in names)


def _relevance(v: Violation) -> tuple:
    return (-len(v.path), v.path, v.keyword not in _WEAK, not v.matches_type())


def _equal(one, two) -> bool:
    """JSON equality: a bool equals no number, also inside arrays and objects."""
    if one is two:
        return True
    if isinstance(one, str) or isinstance(two, str):
        return one == two
    if isinstance(one, Sequence) and isinstance(two, Sequence):
        return len(one) == len(two) and all(_equal(a, b) for a, b in zip(one, two))
    if isinstance(one, Mapping) and isinstance(two, Mapping):
        return len(one) == len(two) and all(k in two and _equal(v, two[k])
                                            for k, v in one.items())
    if isinstance(one, bool) or isinstance(two, bool):
        return isinstance(one, bool) and isinstance(two, bool) and one == two
    return one == two


#: a compiled (sub)schema: the violations of an instance at a path
Check = Callable[[object, tuple], Iterator[Violation]]


def _valid(check: Check, instance) -> bool:
    return next(check(instance, ()), None) is None


class SchemaChecker:
    """A schema compiled once; `violations(instance)` yields in the order
    jsonschema's `iter_errors` does, and `best_error(instance)` is the one
    to report."""

    def __init__(self, schema: dict):
        self._def_schemas = schema.get("$defs", {})
        self._check = self._compile(schema, root=True)
        self._defs = {name: self._compile(sub) for name, sub in self._def_schemas.items()}

    def violations(self, instance) -> Iterator[Violation]:
        return self._check(instance, ())

    def best_error(self, instance) -> Violation | None:
        """The violation jsonschema's `best_match` picks, or None for none."""
        best = max(self.violations(instance), key=_relevance, default=None)
        while best is not None and best.context:
            smallest = heapq.nsmallest(2, best.context, key=_relevance)
            if len(smallest) == 2 and _relevance(smallest[0]) == _relevance(smallest[1]):
                break
            best = smallest[0]
        return best

    def _compile(self, schema, root: bool = False) -> Check:
        if not isinstance(schema, dict):
            raise ConfigError(f"unsupported subschema {schema!r}: only objects are")
        checks = []
        for key, value in schema.items():
            if key in ANNOTATIONS or (root and key == "$defs"):
                continue
            if key == "then":
                if "if" not in schema:
                    raise ConfigError("schema keyword 'then' without 'if'")
                continue
            if key not in _KEYWORDS:
                raise ConfigError(f"unsupported schema keyword {key!r}")
            checks.append(getattr(self, "_" + key.lstrip("$"))(value, schema))

        def check(instance, path):
            for each in checks:
                yield from each(instance, path)
        return check

    # -- keywords: each takes its value and the schema holding it ----------

    def _type(self, names, schema):
        names = [names] if isinstance(names, str) else names
        if not (isinstance(names, list) and names and all(n in _TYPES for n in names)):
            raise ConfigError(f"unsupported type {names!r}")
        tests = [_TYPES[n] for n in names]
        reprs = ", ".join(repr(n) for n in names)

        def check(instance, path):
            if not any(test(instance) for test in tests):
                yield Violation(f"{instance!r} is not of type {reprs}", "type", path,
                                schema, instance)
        return check

    def _const(self, const, schema):
        def check(instance, path):
            if not _equal(instance, const):
                yield Violation(f"{const!r} was expected", "const", path, schema, instance)
        return check

    def _enum(self, enums, schema):
        if not isinstance(enums, list):
            raise ConfigError(f"unsupported enum {enums!r}")

        def check(instance, path):
            if all(not _equal(each, instance) for each in enums):
                yield Violation(f"{instance!r} is not one of {enums!r}", "enum", path,
                                schema, instance)
        return check

    def _properties(self, properties, schema):
        subs = [(name, self._compile(sub)) for name, sub in properties.items()]

        def check(instance, path):
            if isinstance(instance, dict):
                for name, sub in subs:
                    if name in instance:
                        yield from sub(instance[name], path + (name,))
        return check

    def _additionalProperties(self, allowed, schema):
        if not isinstance(allowed, bool):
            raise ConfigError("additionalProperties must be a boolean")
        known = schema.get("properties", {})

        def check(instance, path):
            if allowed or not isinstance(instance, dict):
                return
            extras = sorted({name for name in instance if name not in known}, key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                names = ", ".join(repr(name) for name in extras)
                yield Violation(f"Additional properties are not allowed ({names} {verb} "
                                "unexpected)", "additionalProperties", path, schema, instance)
        return check

    def _required(self, names, schema):
        def check(instance, path):
            if isinstance(instance, dict):
                for name in names:
                    if name not in instance:
                        yield Violation(f"{name!r} is a required property", "required", path,
                                        schema, instance)
        return check

    def _items(self, items, schema):
        sub = self._compile(items)

        def check(instance, path):
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    yield from sub(item, path + (index,))
        return check

    def _length(self, keyword, bound, schema, fails, message):
        if not (isinstance(bound, int) and not isinstance(bound, bool) and bound >= 0):
            raise ConfigError(f"unsupported {keyword} {bound!r}")

        def check(instance, path):
            if isinstance(instance, list) and fails(len(instance), bound):
                yield Violation(f"{instance!r} {message}", keyword, path, schema, instance)
        return check

    def _minItems(self, bound, schema):
        return self._length("minItems", bound, schema, lambda n, b: n < b,
                            "should be non-empty" if bound == 1 else "is too short")

    def _maxItems(self, bound, schema):
        return self._length("maxItems", bound, schema, lambda n, b: n > b,
                            "is expected to be empty" if bound == 0 else "is too long")

    def _bound(self, keyword, bound, schema, fails, words):
        number = _TYPES["number"]
        if not number(bound):
            raise ConfigError(f"unsupported {keyword} {bound!r}")

        def check(instance, path):
            if number(instance) and fails(instance, bound):
                yield Violation(f"{instance!r} is {words} {bound!r}", keyword, path, schema,
                                instance)
        return check

    def _minimum(self, bound, schema):
        return self._bound("minimum", bound, schema, lambda x, b: x < b,
                           "less than the minimum of")

    def _exclusiveMinimum(self, bound, schema):
        return self._bound("exclusiveMinimum", bound, schema, lambda x, b: x <= b,
                           "less than or equal to the minimum of")

    def _exclusiveMaximum(self, bound, schema):
        return self._bound("exclusiveMaximum", bound, schema, lambda x, b: x >= b,
                           "greater than or equal to the maximum of")

    def _allOf(self, subschemas, schema):
        subs = [self._compile(sub) for sub in subschemas]

        def check(instance, path):
            for sub in subs:
                yield from sub(instance, path)
        return check

    def _oneOf(self, subschemas, schema):
        subs = [(raw, self._compile(raw)) for raw in subschemas]

        def check(instance, path):
            context = []
            branches = iter(subs)
            for raw, sub in branches:
                found = list(sub(instance, path))
                if not found:
                    first_valid = raw
                    break
                context.extend(found)
            else:
                yield Violation(f"{instance!r} is not valid under any of the given schemas",
                                "oneOf", path, schema, instance, context)
                return
            more = [raw for raw, sub in branches if _valid(sub, instance)]
            if more:
                reprs = ", ".join(repr(raw) for raw in more + [first_valid])
                yield Violation(f"{instance!r} is valid under each of {reprs}", "oneOf", path,
                                schema, instance)
        return check

    def _if(self, condition, schema):
        test = self._compile(condition)
        then = self._compile(schema["then"]) if "then" in schema else None

        def check(instance, path):
            if then is not None and _valid(test, instance):
                yield from then(instance, path)
        return check

    def _ref(self, ref, schema):
        prefix = "#/$defs/"
        name = ref[len(prefix):] if isinstance(ref, str) and ref.startswith(prefix) else None
        if name not in self._def_schemas:
            raise ConfigError(f"unsupported $ref {ref!r}: only #/$defs/<name> is")

        def check(instance, path):
            return self._defs[name](instance, path)
        return check


#: the keywords `SchemaChecker` interprets, besides the annotations
_KEYWORDS = frozenset([
    "type", "const", "enum", "properties", "additionalProperties", "required", "items",
    "minItems", "maxItems", "minimum", "exclusiveMinimum", "exclusiveMaximum", "oneOf",
    "allOf", "if", "then", "$ref"])
