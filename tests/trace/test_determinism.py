"""Determinism regression tests: the trace hash as an exact oracle.

The kernel's documented guarantee — "two runs with the same seed
produce identical traces regardless of host platform or dict ordering"
— was previously folklore; these tests pin it down end to end.  The
full stack (monitoring + background load generators + scheduling +
execution) runs twice with the same seed and must produce byte-identical
canonical traces; a different seed must diverge.
"""

from repro import VDCE, Tracer
from repro.sim.workload import OrnsteinUhlenbeckLoad, attach_generators
from repro.metrics.analysis import structural_diff
from repro.trace import events_to_jsonl, trace_hash
from repro.workloads import linear_solver_afg


def run_full_stack(seed: int, scale: float = 0.15):
    """One instrumented end-to-end run on a 2-site topology."""
    tracer = Tracer()
    env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=seed, tracer=tracer)
    attach_generators(
        env.sim, env.topology.all_hosts,
        lambda: OrnsteinUhlenbeckLoad(mean=0.8, sigma=0.3, period_s=1.0),
    )
    env.start_monitoring()
    result = env.submit(linear_solver_afg(scale=scale), k=1)
    env.advance(5.0)  # let monitoring/echo run past the application
    return tracer, result


class TestTraceDeterminism:
    def test_same_seed_identical_hash(self):
        tracer_a, result_a = run_full_stack(seed=7)
        tracer_b, result_b = run_full_stack(seed=7)
        assert len(tracer_a) == len(tracer_b)
        assert trace_hash(tracer_a) == trace_hash(tracer_b)
        # the hash stands for the full canonical byte stream
        assert events_to_jsonl(tracer_a) == events_to_jsonl(tracer_b)
        assert structural_diff(tracer_a, tracer_b)["identical"]
        assert result_a.makespan == result_b.makespan

    def test_different_seed_different_hash(self):
        tracer_a, _ = run_full_stack(seed=7)
        tracer_c, _ = run_full_stack(seed=8)
        assert trace_hash(tracer_a) != trace_hash(tracer_c)
        assert not structural_diff(tracer_a, tracer_c)["identical"]

    def test_hash_ignores_formatting_not_content(self):
        tracer, _ = run_full_stack(seed=3)
        events = tracer.events()
        assert trace_hash(tracer) == trace_hash(events)
        assert trace_hash(events[:-1]) != trace_hash(events)

    def test_trace_survives_jsonl_round_trip_with_same_hash(self):
        from repro.trace import parse_jsonl

        tracer, _ = run_full_stack(seed=11)
        reparsed = parse_jsonl(events_to_jsonl(tracer))
        assert trace_hash(reparsed) == trace_hash(tracer)

    def test_disabled_tracer_records_nothing(self):
        env = VDCE.standard(n_sites=2, hosts_per_site=2, seed=0)
        env.start_monitoring()
        env.submit(linear_solver_afg(scale=0.1), k=1)
        assert not env.tracer.enabled
        assert len(env.tracer.events()) == 0
        assert env.trace_hash() == trace_hash([])
