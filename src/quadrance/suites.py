"""The names of the verification suites, in the order ``--suite all`` runs
them, and of the forms the form-based suites cover.

quadrance.verify runs them; the command line offers them as ``verify
--suite`` and ``verify --color`` choices.  They sit apart from the
verifier so that a command that runs no suite starts without importing it.
"""

SUITE_NAMES = ("triple-quad", "quadruple-quad", "heron", "brahmagupta", "fibonacci",
               "triple-spread", "quadruple-spread", "chromo", "isometry", "spreadpoly")

FORM_NAMES = ("blue", "red", "green", "general")
