"""Cache-aided modulation for heterogeneous coded caching over AWGN broadcast.

Builds decentralized-placement delivery plans under two padding schemes,
maps the XOR multicast blocks onto set-partitioning-labeled PSK/QAM
constellations, and evaluates per-user symbol error rates both in closed
form and by seeded Monte Carlo.
"""

from .analysis import (
    CellTable,
    SerReport,
    bound_table,
    q_function,
    ser_report,
    symbol_error_bound,
)
from .caching import (
    PROPOSED,
    SCHEMES,
    ZERO_PADDING,
    CacheProfile,
    DeliveryPlan,
    DemandVector,
    Library,
    PlacementRealization,
    SubfileMap,
    build_delivery_plan,
    decode_block,
    encode_block,
    expected_subfile_lengths,
    realized_subfile_map,
    sample_placement,
)
from .errors import ConfigurationError
from .mc import (
    EndToEndResult,
    end_to_end_noiseless,
    estimate_cell_ser,
    estimate_table,
)
from .modem import (
    Constellation,
    build_constellation,
    build_psk,
    build_qam,
    detect,
    min_distance,
)

__all__ = [
    "CacheProfile",
    "CellTable",
    "ConfigurationError",
    "Constellation",
    "DeliveryPlan",
    "DemandVector",
    "EndToEndResult",
    "Library",
    "PROPOSED",
    "PlacementRealization",
    "SCHEMES",
    "SerReport",
    "SubfileMap",
    "ZERO_PADDING",
    "bound_table",
    "build_constellation",
    "build_delivery_plan",
    "build_psk",
    "build_qam",
    "decode_block",
    "detect",
    "encode_block",
    "end_to_end_noiseless",
    "estimate_cell_ser",
    "estimate_table",
    "expected_subfile_lengths",
    "min_distance",
    "q_function",
    "realized_subfile_map",
    "sample_placement",
    "ser_report",
    "symbol_error_bound",
]

__version__ = "0.1.0"
