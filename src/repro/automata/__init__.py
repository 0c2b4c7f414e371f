"""Automata substrate: the regex engine (:mod:`repro.automata.regex`)
and key languages (:mod:`repro.automata.keylang`).

J-automata (Proposition 10) are :mod:`repro.reference.jautomata`.
"""
