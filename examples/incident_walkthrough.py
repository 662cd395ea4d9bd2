"""A human-operator walkthrough of one incident, acting through the ACI.

No agent here — this script plays the operator, showing exactly what an
agent sees at each step of diagnosing and mitigating the Figure-4 fault
(revoked MongoDB privileges on mongodb-geo).

Run:  python examples/incident_walkthrough.py
"""

from repro.core import Orchestrator
from repro.core.aci import SubmissionReceived
from repro.problems import get_problem


def show(title, text, tail=12):
    print(f"\n$ {title}")
    lines = text.splitlines()
    print("\n".join(lines[:tail]))
    if len(lines) > tail:
        print(f"  ... ({len(lines) - tail} more lines)")


def main():
    orch = Orchestrator(seed=13)
    prob_desc, _, _ = orch.init_problem(
        get_problem("revoke_auth_hotel_res-mitigation-1"))
    try:
        print(prob_desc)

        aci = orch.actions
        ns = orch.env.namespace

        # 1. what is unhappy?
        show(f'get_logs("{ns}", "all")', aci.get_logs(ns, "all"))

        # 2. drill into the loudest service
        show(f'get_logs("{ns}", "geo")', aci.get_logs(ns, "geo", tail=4))

        # 3. confirm cluster state is fine (this is app-level, not k8s-level)
        show("kubectl get deployments",
             aci.exec_shell(f"kubectl get deployments -n {ns}"), tail=6)

        # 4. find the mongo pod and repair the privileges
        pods = aci.exec_shell(f"kubectl get pods -n {ns}")
        mongo_pod = next(line.split()[0] for line in pods.splitlines()
                         if line.startswith("mongodb-geo-"))
        fix = aci.exec_shell(
            f"kubectl exec {mongo_pod} -n {ns} -- mongo --eval "
            f"\"db.grantRolesToUser('admin', ['readWrite','dbAdmin'])\"")
        show("repair via mongo shell", fix)

        # 5. verify and submit
        show(f'get_logs("{ns}", "all") after fix', aci.get_logs(ns, "all"))
        try:
            aci.submit()
        except SubmissionReceived:
            pass
        result = orch.problem.eval(None, orch.session, 0.0, env=orch.env)
    finally:
        orch.env.close()  # removes its telemetry export dir
    print(f"\nmitigation check: success={result['success']} "
          f"({result['reason']})")


if __name__ == "__main__":
    main()
