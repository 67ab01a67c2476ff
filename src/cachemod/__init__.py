"""Cache-aided modulation for heterogeneous coded caching over AWGN broadcast.

Builds decentralized-placement delivery plans under two padding schemes,
maps the XOR multicast blocks onto set-partitioning-labeled PSK/QAM
constellations, and evaluates per-user symbol error rates both in closed
form and by seeded Monte Carlo.
"""

from .analysis import (
    CellTable,
    SchemeComparison,
    SerReport,
    SnrProfile,
    analytic_report,
    bound_table,
    compare_schemes,
    plan_metrics,
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
    MulticastBlockSpec,
    PlacementRealization,
    SubfileMap,
    build_delivery_plan,
    decode_block,
    encode_block,
    expected_subfile_lengths,
    quantize_expected_map,
    realized_subfile_map,
    sample_placement,
)
from .errors import ConfigurationError, UselessBlockError
from .mc import (
    CampaignConfig,
    CellEstimate,
    EndToEndResult,
    end_to_end_noiseless,
    estimate_cell_ser,
    estimate_table,
    run_campaign,
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
    "CampaignConfig",
    "CellEstimate",
    "CellTable",
    "ConfigurationError",
    "Constellation",
    "DeliveryPlan",
    "DemandVector",
    "EndToEndResult",
    "Library",
    "MulticastBlockSpec",
    "PROPOSED",
    "PlacementRealization",
    "SCHEMES",
    "SchemeComparison",
    "SerReport",
    "SnrProfile",
    "SubfileMap",
    "UselessBlockError",
    "ZERO_PADDING",
    "analytic_report",
    "bound_table",
    "build_constellation",
    "build_delivery_plan",
    "build_psk",
    "build_qam",
    "compare_schemes",
    "decode_block",
    "detect",
    "encode_block",
    "end_to_end_noiseless",
    "estimate_cell_ser",
    "estimate_table",
    "expected_subfile_lengths",
    "min_distance",
    "plan_metrics",
    "q_function",
    "quantize_expected_map",
    "realized_subfile_map",
    "run_campaign",
    "sample_placement",
    "ser_report",
    "symbol_error_bound",
]

__version__ = "0.1.0"
