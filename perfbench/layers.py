"""Which end-to-end metric each layer's metrics should move, on which workload.

Written down before any optimisation is measured, so a later change that
claims a gain on one layer can be checked against the prediction.  Keys
are per-layer metric prefixes (the metric name without its last dotted
part); values name the end-to-end metric (with the workload-specific name
in parentheses) and the workload.

Predicted non-effects:

* the gateway layers move nothing outside ``wire_small``;
* ``core.matmul``, ``serve`` and ``dnn`` do not move ``wire_small``, which
  runs on the analytic path;
* ``core.macro`` and ``core.chip`` move only ``paper_kernels``;
* ``cluster.kernel`` turbo changes do not move the object path in
  ``exact_multimodel``.
"""

LAYER_MAP = {
    "gateway.client": "-> latency_p50_ms (wire_p50_ms), fail_frac on wire_small",
    "gateway.loadgen": "-> latency_p50_ms (wire_p50_ms), fail_frac on wire_small",
    "gateway.protocol": "-> throughput_per_s (wire_rps) on wire_small",
    "gateway.server": "-> throughput_per_s (wire_rps), latency_p50_ms (wire_p50_ms) "
    "on wire_small",
    "cluster.router": "-> throughput_per_s (wire_rps) on wire_small; "
    "throughput_per_s (exact_images_per_s) on exact_multimodel",
    "cluster.scheduler": "-> throughput_per_s (wire_rps) on wire_small; "
    "throughput_per_s (exact_images_per_s) on exact_multimodel",
    "cluster.node": "-> throughput_per_s (wire_rps) on wire_small; "
    "throughput_per_s (exact_images_per_s) on exact_multimodel",
    "cluster.kernel": "-> throughput_per_s (replay_rps) on replay_diurnal",
    "cluster.telemetry": "-> throughput_per_s (replay_rps) on replay_diurnal",
    "serve": "-> throughput_per_s (exact_images_per_s) on exact_multimodel",
    "dnn": "-> throughput_per_s (exact_images_per_s) on exact_multimodel",
    "core.matmul": "-> throughput_per_s (exact_images_per_s), sim_energy_j "
    "(sim_nj_per_image), sim_miss_rate on exact_multimodel",
    "fleet": "-> throughput_per_s (fleet_images_per_s) on fleet_exact",
    "core.kernels": "-> throughput_per_s (kernel_mops) on paper_kernels",
    "core.chip": "-> throughput_per_s (kernel_mops) on paper_kernels",
    "core.macro": "-> throughput_per_s (kernel_mops) on paper_kernels",
    "trace": "(the measurement itself)",
}
