"""Traditional (non-LLM) AIOps baselines evaluated in Table 4 (§3.1).

* :class:`MKSMC` — multivariate K-sigma anomaly detection with Monte-Carlo
  thresholding (Çetin & Tasgin, 2020) — detection.
* :class:`RMLAD` — root-cause metric location via log anomaly detection
  (Wang et al., 2020) — localization.
* :class:`PDiagnose` — heterogeneous-data (KPI + log + trace) vote-based
  diagnosis of performance issues (Hou et al., 2021) — localization.

All three consume the offline telemetry export (§2.5) rather than the ACI:
they are batch algorithms, not agents.
"""

from repro.baselines.mksmc import MKSMC
from repro.baselines.rmlad import RMLAD
from repro.baselines.pdiagnose import PDiagnose
from repro.baselines.runner import run_baselines

__all__ = ["MKSMC", "RMLAD", "PDiagnose", "run_baselines"]
