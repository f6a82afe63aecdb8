"""Motion-to-rhythm extraction and dance-music alignment toolkit.

Import each name from its module (`from kinebeat.metrics import match_beats`);
`import kinebeat` itself loads no submodule.
"""

__version__ = "0.1.0"
