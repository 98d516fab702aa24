"""RC04 — structural shape of the ``RateProvider`` delta contract.

The calendar hands every flow delta to a provider's ``update_slots`` and
calls nothing else but ``reset`` (see the :mod:`repro.network.fluid`
docstring).  Four structural rules keep a provider from quietly landing
outside the contract:

* **update-is-a-view** — a class defining both ``update`` and
  ``update_slots`` must route ``update`` through ``update_slots`` (directly
  or via helpers reachable by ``self.``-calls): the calendar prices through
  ``update_slots`` while ``rates()`` shims and direct callers price through
  ``update``, so two independent pricing walks could drift apart.
* **slots-invariant-methods** — a class speaking ``update_slots`` must also
  define ``reset``: :meth:`~repro.network.fluid.TransferCalendar.reprice`
  re-seeds every slot handle through reset + full re-add, and the calendar
  rejects a provider without it.
* **rates-is-a-shim** — a class defining both ``update`` and ``rates`` must
  route ``rates`` through ``update`` the same way: a full-set query with
  its own pricing is the same drift.
* **reset-is-zero-arg** — ``reset()`` takes no arguments beyond ``self``:
  the calendar and the campaign runner call it blind between runs.

Class bodies are resolved through same-file base classes (simple-name
inheritance), so provider hierarchies are judged on their effective method
set.  ``Protocol`` definitions are skipped — they declare the contract,
they don't implement it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from .base import Checker, CheckContext, ParsedModule, dotted_name

__all__ = ["DeltaContractChecker"]

_CONTRACT_METHODS = frozenset({"update", "update_slots", "rates"})


def _method_defs(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    out: Dict[str, ast.FunctionDef] = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node  # type: ignore[assignment]
    return out


def _is_protocol(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        name = dotted_name(base)
        if name is not None and name.split(".")[-1] == "Protocol":
            return True
    return False


def _self_calls(func: ast.FunctionDef) -> Set[str]:
    """Names of ``self.<m>(...)`` methods called anywhere inside ``func``."""
    out: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id == "self":
                out.add(node.func.attr)
    return out


def _extra_parameters(func: ast.FunctionDef) -> List[str]:
    """Parameter names beyond ``self`` (including *args/**kwargs markers)."""
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args][1:]  # drop self
    names += [a.arg for a in args.kwonlyargs]
    if args.vararg is not None:
        names.append("*" + args.vararg.arg)
    if args.kwarg is not None:
        names.append("**" + args.kwarg.arg)
    return names


class DeltaContractChecker(Checker):
    code = "RC04"
    name = "delta-contract"
    description = ("RateProvider structure: update() must be a view over "
                   "update_slots(), which needs reset() beside it; "
                   "rates() must be a shim over update(); reset() must be "
                   "zero-arg")

    def visit_module(self, ctx: CheckContext, module: ParsedModule) -> None:
        classes: Dict[str, ast.ClassDef] = {
            node.name: node for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }
        for cls in classes.values():
            if _is_protocol(cls):
                continue
            own = _method_defs(cls)
            effective = self._effective_methods(cls, classes)
            if not (_CONTRACT_METHODS & set(effective)):
                continue  # not a rate provider at all
            self._check_class(ctx, module, cls, own, effective)

    def _effective_methods(self, cls: ast.ClassDef,
                           classes: Dict[str, ast.ClassDef],
                           _seen: Optional[Set[str]] = None
                           ) -> Dict[str, ast.FunctionDef]:
        """Own methods plus same-file base-class methods (depth-first MRO-ish)."""
        seen = _seen if _seen is not None else set()
        if cls.name in seen:
            return {}
        seen.add(cls.name)
        merged: Dict[str, ast.FunctionDef] = {}
        for base in cls.bases:
            base_name = dotted_name(base)
            if base_name in classes:
                for name, func in self._effective_methods(
                        classes[base_name], classes, seen).items():
                    merged.setdefault(name, func)
        merged.update(_method_defs(cls))
        return merged

    def _check_class(self, ctx: CheckContext, module: ParsedModule,
                     cls: ast.ClassDef, own: Dict[str, ast.FunctionDef],
                     effective: Dict[str, ast.FunctionDef]) -> None:
        if "update" in effective and "update_slots" in effective:
            if not self._reaches(effective, "update", "update_slots"):
                anchor = own.get("update") or own.get("update_slots")
                ctx.report(module,
                           anchor.lineno if anchor is not None else cls.lineno,
                           self.code,
                           f"class {cls.name!r} defines update() that does "
                           "not route through update_slots(): the dict call "
                           "must be a view over the slot walk or the two "
                           "pricings can drift")
        if "update_slots" in effective and "reset" not in effective:
            anchor = own.get("update_slots")
            ctx.report(module,
                       anchor.lineno if anchor is not None else cls.lineno,
                       self.code,
                       f"class {cls.name!r} defines update_slots() "
                       "without the slot-map invariant method set "
                       "(missing: reset); reprice re-seeds slot handles "
                       "through reset(), and the calendar rejects a "
                       "provider without it")
        if "update" in effective and "rates" in effective:
            if not self._reaches(effective, "rates", "update"):
                anchor = own.get("rates") or own.get("update")
                ctx.report(module,
                           anchor.lineno if anchor is not None else cls.lineno,
                           self.code,
                           f"class {cls.name!r} defines rates() that does "
                           "not route through update(): the full-set shim "
                           "must delegate to the delta path or the two "
                           "pricings can drift")
        reset = effective.get("reset")
        if reset is not None:
            extra = _extra_parameters(reset)
            if extra:
                anchor = own.get("reset", reset)
                ctx.report(module, anchor.lineno, self.code,
                           f"class {cls.name!r} reset() must be zero-arg "
                           f"(found parameters: {', '.join(extra)}); the "
                           "calendar and campaign runner call it blind")

    @staticmethod
    def _reaches(effective: Dict[str, ast.FunctionDef], start: str,
                 target: str) -> bool:
        """Is ``target`` reachable from ``start`` via self-method calls?"""
        queue = [start]
        visited: Set[str] = set()
        while queue:
            name = queue.pop()
            if name in visited:
                continue
            visited.add(name)
            func = effective.get(name)
            if func is None:
                continue
            calls = _self_calls(func)
            if target in calls:
                return True
            queue.extend(call for call in calls if call in effective)
        return False
