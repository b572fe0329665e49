"""Minimal counterexample/fixed-document pairs for the network validator.

Each case is (name, expected_kind, bad_nodes, bad_edges, good_nodes,
good_edges): the bad pair must produce at least one error of expected_kind,
the good pair must validate clean.
"""

GOOD_NODES = """<nodes>
    <node id="n0" x="0.0" y="0.0" type="priority"/>
    <node id="n1" x="100.0" y="0.0" type="priority"/>
</nodes>"""

GOOD_EDGES = """<edges>
    <edge id="e0" from="n0" to="n1" numLanes="1" speed="13.89" spreadType="right"/>
</edges>"""

_EDGES_LANE_NO_SHAPE = """<edges>
    <edge id="e0" from="n0" to="n1" numLanes="1" speed="13.89" spreadType="right">
        <lane index="0"/>
    </edge>
</edges>"""

_EDGES_LANE_NO_INDEX = """<edges>
    <edge id="e0" from="n0" to="n1" numLanes="1" speed="13.89" spreadType="right">
        <lane shape="0.0,0.0 100.0,0.0"/>
    </edge>
</edges>"""

_EDGES_LANE_OK = """<edges>
    <edge id="e0" from="n0" to="n1" numLanes="1" speed="13.89" spreadType="right">
        <lane index="0" shape="0.0,0.0 100.0,0.0"/>
    </edge>
</edges>"""

_EDGES_LANE_INF = _EDGES_LANE_OK.replace('100.0,0.0', 'inf,0.0')

_EDGES_SHAPE_OK = GOOD_EDGES.replace(
    'spreadType="right"',
    'spreadType="right" shape="0.0,0.0 50.0,8.5 100.0,0.0"')

_EDGES_SHAPE_MALFORMED = _EDGES_SHAPE_OK.replace("50.0,8.5", "50.0")

_EDGES_SHAPE_NAN = _EDGES_SHAPE_OK.replace("50.0,8.5", "nan,8.5")

_EDGES_BAD_SPREAD = GOOD_EDGES.replace('spreadType="right"', 'spreadType="left"')

_EDGES_UNDECLARED = GOOD_EDGES.replace(
    'spreadType="right"', 'spreadType="right" function="internal"')

_EDGES_HASH_ID = GOOD_EDGES.replace('id="e0"', 'id="e#0"')

_EDGES_UNKNOWN_NODE = GOOD_EDGES.replace('to="n1"', 'to="n9"')

_NODES_DUPLICATE = """<nodes>
    <node id="n0" x="0.0" y="0.0" type="priority"/>
    <node id="n0" x="100.0" y="0.0" type="priority"/>
</nodes>"""

_EDGES_EMPTY = "<edges>\n</edges>"

_NODES_X_NAN = GOOD_NODES.replace('x="100.0"', 'x="nan"')

_NODES_Y_INF = GOOD_NODES.replace('y="0.0" type', 'y="-inf" type', 1)

CASES = [
    ("lane missing shape", "MissingAttribute",
     GOOD_NODES, _EDGES_LANE_NO_SHAPE, GOOD_NODES, _EDGES_LANE_OK),
    ("lane missing index", "MissingAttribute",
     GOOD_NODES, _EDGES_LANE_NO_INDEX, GOOD_NODES, _EDGES_LANE_OK),
    ("spreadType outside enum", "InvalidEnum",
     GOOD_NODES, _EDGES_BAD_SPREAD, GOOD_NODES, GOOD_EDGES),
    ("undeclared edge attribute", "UndeclaredAttribute",
     GOOD_NODES, _EDGES_UNDECLARED, GOOD_NODES, GOOD_EDGES),
    ("hash in identifier", "MalformedKeyword",
     GOOD_NODES, _EDGES_HASH_ID, GOOD_NODES, GOOD_EDGES),
    ("edge references unknown node", "UnknownNode",
     GOOD_NODES, _EDGES_UNKNOWN_NODE, GOOD_NODES, GOOD_EDGES),
    ("duplicate node id", "DuplicateId",
     _NODES_DUPLICATE, GOOD_EDGES, GOOD_NODES, GOOD_EDGES),
    ("network without edges", "EmptyNetwork",
     GOOD_NODES, _EDGES_EMPTY, GOOD_NODES, GOOD_EDGES),
    ("lane shape not finite", "MalformedKeyword",
     GOOD_NODES, _EDGES_LANE_INF, GOOD_NODES, _EDGES_LANE_OK),
    ("edge shape malformed", "MalformedKeyword",
     GOOD_NODES, _EDGES_SHAPE_MALFORMED, GOOD_NODES, _EDGES_SHAPE_OK),
    ("edge shape not finite", "MalformedKeyword",
     GOOD_NODES, _EDGES_SHAPE_NAN, GOOD_NODES, _EDGES_SHAPE_OK),
    ("node x not finite", "InvalidEnum",
     _NODES_X_NAN, GOOD_EDGES, GOOD_NODES, GOOD_EDGES),
    ("node y not finite", "InvalidEnum",
     _NODES_Y_INF, GOOD_EDGES, GOOD_NODES, GOOD_EDGES),
]
