"""Offline telemetry export + traditional AIOps baselines (§2.5, §3.1).

Deploys HotelReservation, lets healthy traffic run, injects a fault,
exports the telemetry to disk (the same files `get_logs`/`get_metrics`/
`get_traces` save), and runs the three non-LLM baselines on it:

* MKSMC      — detection over the metric matrix;
* RMLAD      — localization from log-volume anomalies;
* PDiagnose  — localization from a KPI/log/trace vote.

Run:  python examples/offline_baselines.py
"""

import tempfile

from repro.baselines import MKSMC, PDiagnose, RMLAD
from repro.core import CloudEnvironment
from repro.apps import HotelReservation
from repro.faults import ApplicationFaultInjector


def main():
    # the exported files live until the block ends
    with tempfile.TemporaryDirectory(prefix="aiopslab-") as export_root:
        env = CloudEnvironment(HotelReservation, seed=21, workload_rate=60,
                               export_root=export_root)

        print("warming up with healthy traffic...")
        env.advance(60)
        inject_t = env.clock.now

        print("injecting revoke_auth on mongodb-geo...")
        ApplicationFaultInjector(env.app)._inject(["mongodb-geo"], "revoke_auth")
        env.advance(60)

        root = env.exporter.export_all(env.namespace)
        print(f"telemetry exported to {root}\n")

        services = sorted(env.app.services)

        detector = MKSMC(seed=21)
        detector.fit(env.collector.metrics, services, until=inject_t)
        verdict = detector.detect(env.collector.metrics, services, since=inject_t)
        print(f"MKSMC     anomalous={verdict.anomalous}  "
              f"score={verdict.score:.2f}  threshold={verdict.threshold:.2f}")

        rmlad = RMLAD().localize(env.collector, env.namespace,
                                 healthy_until=inject_t,
                                 observe_until=env.clock.now)
        print(f"RMLAD     top-3: {rmlad.top(3)}")

        pdiag = PDiagnose().localize(env.collector, env.namespace, since=inject_t)
        print(f"PDiagnose top-3: {pdiag.top(3)}")

        print("\nground truth: mongodb-geo (fault), geo (first symptom)")


if __name__ == "__main__":
    main()
