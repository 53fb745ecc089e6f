"""Evolutionary search over cell-structured network blueprints, with
mutations proposed by a recurrent policy trained on the search's own
fitness signal, judged against fast synthetic fitness oracles."""

__version__ = "0.1.0"
