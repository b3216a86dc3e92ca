"""Contract-oriented multiparty sessions.

Participants advertise behavioural contracts (local session types); a broker
creates a session when a subset of advertised contracts can be assigned a
choreography (a global type); at runtime every contractual action is checked
against the session state, which keeps culpability attributable. The
analysis layer decides who owes the next move and searches for states where
a participant cannot honour what it promised.
"""
from . import analysis, choreo, contracts, frontend, runtime, synthesis
from .contracts import (
    Contract,
    ContractSystem,
    MoveLabel,
    contract_ready_sets,
    contract_step,
    enabled_moves,
    is_terminated,
    make_system,
    unfold,
)
from .choreo import GlobalType, canonicalize, project, well_formed
from .synthesis import SynthResult, synthesize
from .runtime import Co2System, FusePolicy, Trace, enabled_steps, find_agreement, normalize, run
from .analysis import check_honesty, check_trace_properties, culpable, ready

__version__ = "0.1.0"
