"""Statistics and metric tables for the jacepp benchmark.

Pure functions over the JSON records the C++ driver prints (one "rep" record
per repetition, one "summary" record per process), so the unit tests in
tests/ can check them without running a deployment.
"""

import statistics

WORKLOADS = ("fig7-churn", "solve-large", "cp-100k")

# Host seconds one repetition takes, with its set-up burst, per workload.
REP_SECONDS = {"fig7-churn": 10.0, "solve-large": 10.0, "cp-100k": 17.0}


def rep_count(workload, seconds, minimum):
    """Repetitions in a run of about `seconds`, at least `minimum`.

    The count depends on `seconds` alone, never on how fast the host happens
    to be, so every run filters its wall time (see filtered_wall_s) over the
    same number of repeats.
    """
    return max(minimum, int(seconds // REP_SECONDS[workload]))


def summarize(values):
    """Median, first and third quartile and sample count of `values`.

    Quartiles follow statistics.quantiles(values, n=4) (the "exclusive"
    method); with a single sample all three equal it.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summarize() needs at least one value")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    s = summarize(values)
    return (s["q3"] - s["q1"]) / s["median"] if s["median"] else float("inf")


def metric(value, unit):
    return {"value": value, "unit": unit}


def filtered_wall_s(reps):
    """Wall time of the run's deployment with host interference filtered out.

    The driver times each repetition in equal steps of simulated time
    ("step_wall_s"). Every repetition of a run deploys the same seed and
    executes the same events in every step, so a step that took longer in
    one of them was slowed by the host, not by the code: on a shared host
    other tenants take the core in bursts of a few milliseconds. The result
    is the sum over steps of the fastest repeat of that step.
    """
    if len({r["seed"] for r in reps}) != 1:
        raise ValueError("repetitions of one run deployed different seeds")
    steps = [r["step_wall_s"] for r in reps]
    if len({len(s) for s in steps}) != 1:
        raise ValueError("repetitions of one run took different step counts")
    return sum(min(step) for step in zip(*steps))


def end_to_end(reps, summary):
    """End-to-end metrics of an untraced run."""
    return {
        "wall_s": metric(filtered_wall_s(reps), "s"),
        "setup_s": metric(summary["setup_s"], "s"),
        "peak_rss_mb": metric(summary["peak_rss_mb"], "MiB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(traced, untraced):
    """Per-layer metrics of one traced repetition.

    `traced` is the traced replay of the untraced repetition `untraced`
    (same seed, bit-identical simulated outputs).
    """
    sp = traced["spans"]
    c = traced["counts"]
    sim = traced["sim"]

    def calls(layer):
        return sp[layer]["calls"]

    def self_s(layer):
        return sp[layer]["self_s"]

    codec_bytes = c["emit_bytes"] + c["decode_bytes"]
    codec_self = self_s("codec.emit") + self_s("codec.decode")
    recoveries = sim["restores_from_backup"] + sim["restarts_from_zero"]
    return {
        "codec.emit.calls": (calls("codec.emit"), "count"),
        "codec.emit.self_s": (self_s("codec.emit"), "s"),
        "codec.emit.bytes": (c["emit_bytes"], "B"),
        "codec.emit.full_share": (_ratio(c["emit_full"], calls("codec.emit")), "ratio"),
        "codec.decode.calls": (calls("codec.decode"), "count"),
        "codec.decode.self_s": (self_s("codec.decode"), "s"),
        "codec.decode.bytes": (c["decode_bytes"], "B"),
        "codec.ns_per_byte": (_ratio(codec_self * 1e9, codec_bytes), "ns/B"),
        "backup.store.calls": (calls("backup.store"), "count"),
        "backup.store.self_s": (self_s("backup.store"), "s"),
        "backup.store.needs_full": (c["store_needs_full"], "count"),
        "backup.materialize.calls": (calls("backup.materialize"), "count"),
        "backup.materialize.self_s": (self_s("backup.materialize"), "s"),
        "backup.materialize.failed": (c["materialize_failed"], "count"),
        "recovery.restore_ratio": (_ratio(sim["restores_from_backup"], recoveries), "ratio"),
        "linalg.cg.calls": (calls("linalg.cg"), "count"),
        "linalg.cg.self_s": (self_s("linalg.cg"), "s"),
        "linalg.cg.iterations": (c["cg_iterations"], "count"),
        "linalg.cg.flops": (c["cg_flops"], "flop"),
        "linalg.cg.gflops": (_ratio(c["cg_flops"] * 1e-9, self_s("linalg.cg")), "GFLOP/s"),
        "solver.outer_iterations": (sim["outer_iterations"], "count"),
        "solver.informative_ratio": (
            _ratio(sim["informative_iterations"], sim["outer_iterations"]), "ratio"),
        "solver.residual": (sim["residual"], "ratio"),
        "des.pop.calls": (calls("des.pop"), "count"),
        "des.pop.self_s": (self_s("des.pop"), "s"),
        "des.schedule.calls": (calls("des.schedule"), "count"),
        "des.schedule.self_s": (self_s("des.schedule"), "s"),
        "sim.events": (sim["events"], "count"),
        "sim.events_per_s": (_ratio(sim["events"], untraced["wall_s"]), "1/s"),
        "sim.rounds": (sim["rounds"], "count"),
        "sim.cross_shard_frames": (sim["cross_shard_frames"], "count"),
        "sim.shard_occupancy": (sim["shard_occupancy"], "ratio"),
        "setup.add_node.self_s": (traced["setup_spans"]["setup.add_node"]["self_s"], "s"),
        "world.other_self_s": (self_s("run"), "s"),
        "actor.super_peer.self_s": (self_s("actor.super_peer"), "s"),
        "actor.daemon.self_s": (self_s("actor.daemon"), "s"),
        "actor.messages": (c["actor_messages"], "count"),
        "link.enqueue.calls": (calls("link.enqueue"), "count"),
        "link.enqueue.self_s": (self_s("link.enqueue"), "s"),
        "link.next_wire_frame.calls": (calls("link.next_wire_frame"), "count"),
        "link.next_wire_frame.self_s": (self_s("link.next_wire_frame"), "s"),
        "link.unpack_batch.calls": (calls("link.unpack_batch"), "count"),
        "link.coalesced": (sim["link_coalesced"], "count"),
        "link.dropped_data": (sim["link_dropped_data"], "count"),
        "link.batches": (sim["link_batches"], "count"),
        "link.wire_frames": (sim["link_wire_frames"], "count"),
        "link.wire_bytes": (sim["link_wire_bytes"], "B"),
        "net.sent": (sim["net_sent"], "count"),
        "net.delivered": (sim["net_delivered"], "count"),
        "net.bytes_sent": (sim["net_bytes_sent"], "B"),
        "net.lost": (sim["net_lost"], "count"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead": (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio"),
    }


def per_layer(traced_reps, untraced_reps):
    """Per-layer metrics of a traced run: medians over its repetitions."""
    rows = [layer_values(t, u) for t, u in zip(traced_reps, untraced_reps)]
    out = {}
    for name, (_, unit) in rows[0].items():
        out[name] = metric(summarize([row[name][0] for row in rows])["median"], unit)
    return out


# Rounding slack of the per-layer seconds the driver prints (9 decimals).
SELF_TIME_SLACK_S = 1e-6


def self_time_excess(traced):
    """How far the self times of the run's spans exceed the run span.

    "spans" holds every span opened after set-up ("setup_spans" holds the
    others), the run span's own included. When each of them nests under the
    run span on one thread, their self times add up to its duration exactly;
    spans counted twice, or opened on another thread or outside the run,
    make the sum larger. Positive beyond SELF_TIME_SLACK_S is a failure.
    """
    spans = traced["spans"]
    return sum(s["self_s"] for s in spans.values()) - spans["run"]["total_s"]


def sim_outputs(rep):
    """The simulated outputs the traced replay must reproduce bit for bit."""
    sim = rep["sim"]
    return (rep["digest"], sim["sim_exec_s"], sim["events"],
            tuple(sim["task_iterations"]))
