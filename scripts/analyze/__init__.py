"""treecode-analyze: the static checker for the treecode tree.

Facts about functions (calls, throws, lock acquisitions, floating-point
accumulations, parallel regions) are extracted per translation unit by
one of two interchangeable frontends —

  * frontend_clang  — libclang (python clang.cindex) driven by the build's
                      compile_commands.json; type-accurate.
  * frontend_tokens — a dependency-free token-level micro-parser; the
                      graceful-degradation fallback when libclang is not
                      installed, and the engine the self-tests always run.

Both frontends emit the same fact model (model.py), and one lexical pass
(lexical.py) adds token-level facts (includes, allocations, span/metric
name arguments, atomic ops, registry constants) and the suppression
comments under either frontend. Every rule (rules.py) runs on facts,
never on raw text, so the two frontends are drop-in replacements with
different precision. Findings are suppressed per-rule with
`// analyze-allow(rule)` comments and reported as a
treecode-analyze-report/v1 JSON document (report.py).
"""
