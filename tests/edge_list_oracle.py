"""The edge-list parser read line by line, the oracle of
graphs.parse_edge_list, which splits every line at once and looks for the
first bad line only when some line is bad."""
from tkit.graphs import Graph, GraphError, make_graph


def oracle_parse_edge_list(text: str) -> Graph:
    """parse_edge_list(text), one line at a time: the first line that is
    not blank, a comment or two distinct tokens raises GraphError."""
    pairs: list[tuple[str, str]] = []
    tokens: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected two vertex tokens, got {len(parts)}")
        u, v = parts
        if u == v:
            raise GraphError(f"line {lineno}: loop edge {u!r}")
        pairs.append((u, v))
        tokens.update(parts)
    if not tokens:
        raise GraphError("no edges found")
    if all(_is_int(t) for t in tokens):
        ordered = sorted(tokens, key=lambda t: (int(t), t))
    else:
        ordered = sorted(tokens)
    index = {t: i for i, t in enumerate(ordered)}
    return make_graph(len(ordered), [(index[u], index[v]) for u, v in pairs], ordered)


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False
