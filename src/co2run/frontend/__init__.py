from .lex import Diagnostic, ParseError
from .parse import (
    parse_contract,
    parse_global,
    parse_named_contracts,
    parse_system,
)
from .emit import (
    global_from_json,
    global_to_json,
    json_text,
    render_contract,
    render_global,
    render_process,
    render_system,
    trace_from_jsonl,
    trace_to_jsonl,
)

__all__ = [
    "Diagnostic",
    "ParseError",
    "parse_contract",
    "parse_global",
    "parse_named_contracts",
    "parse_system",
    "global_from_json",
    "global_to_json",
    "json_text",
    "render_contract",
    "render_global",
    "render_process",
    "render_system",
    "trace_from_jsonl",
    "trace_to_jsonl",
]
