"""Lowering once per structure class (ROADMAP items 1(a) and 2(d)).

``Task.lower`` lowers the first config of a structure class with traced
split factors and replays that recording for every later config meeting its
path condition.  The replayed program must be the one a fresh lowering of
the config gives — names (up to the process-wide name counter), buffer
shapes, loop kinds, guards and constants — with bit-identical features, on
every template and target; and a recording that forgot one condition must
be caught by that comparison.
"""

import copy
import dataclasses
import gc
import random
import re
import tracemalloc

from repro import tir
from repro.autotvm import clear_eval_caches, eval_cache_stats
from repro.autotvm.eval_cache import LOWERED_CACHE
from repro.frontend import ModelBuilder
from repro.graph.op_timing import is_templated, make_task_for_node
from repro.hardware.target import create_target
from repro.te.expr import (_B_VAR, BinaryOp, Call, Cast, FloatImm, IntImm, Not, Select,
                           StringImm, Var)
from repro.tir import analysis
from repro.tir.stmt import (AttrStmt, Buffer, BufferLoad, BufferStore, For, IfThenElse,
                            IntrinsicStmt, SeqStmt)

TARGETS = ("cuda", "mali", "arm_cpu", "pynq_cpu", "vdla")


def _tasks():
    """``(label, task)`` of every template x target on small shapes, and a
    conv with 28-wide rows on cuda and arm_cpu."""
    for op in ("conv2d", "depthwise_conv2d", "dense"):
        b = ModelBuilder("replay", seed=0)
        if op == "dense":
            out = b.dense(b.input("data", (2, 12)), 6, name="op")
        else:
            data = b.input("data", (1, 4, 6, 6))
            out = (b.conv2d(data, 6, 3, 2, 1, name="op") if op == "conv2d"
                   else b.depthwise_conv2d(data, 3, 1, 1, name="op"))
        node = b.finalize(out)[0].find("op")
        for name in TARGETS:
            target = create_target(name)
            if is_templated(node, target):
                yield f"{op}/{name}", make_task_for_node(node, target)
    # 28-wide rows and 32 channels: fused GPU tiles that wrap, cooperative
    # fills whose thread count does not divide their region, and CPU
    # channel tiles on either side of the template's unroll limit
    b = ModelBuilder("replay", seed=0)
    out = b.conv2d(b.input("data", (1, 16, 28, 28)), 32, 1, 1, 0, name="op")
    node = b.finalize(out)[0].find("op")
    for name in ("cuda", "arm_cpu"):
        yield f"conv2d_28/{name}", make_task_for_node(node, create_target(name))


def _name(name):
    """A tensor's name without the ``_<n>`` the name counter appends."""
    return re.sub(r"_\d+(?=\.|$)", "", name)


def _program(func):
    """Everything a lowered function says, with variables numbered by first
    use and names without the name counter's suffix."""
    numbers = {}
    lines = [(_name(b.name), b.shape, b.dtype, b.scope)
             for b in func.args + func.allocations]

    def expr(e):
        if isinstance(e, Var):
            return f"{e.name}#{numbers.setdefault(id(e), len(numbers))}"
        if isinstance(e, (IntImm, FloatImm)):
            return f"{e.value!r}:{e.dtype}"
        if isinstance(e, StringImm):
            return repr(e.value)
        if isinstance(e, BufferLoad):
            return f"{_name(e.buffer.name)}[{', '.join(map(expr, e.indices))}]"
        if isinstance(e, BinaryOp):
            return f"({expr(e.a)} {e.op_name} {expr(e.b)}):{e.dtype}"
        if isinstance(e, Not):
            return f"!{expr(e.a)}"
        if isinstance(e, Select):
            return f"select({expr(e.condition)}, {expr(e.true_value)}, {expr(e.false_value)})"
        if isinstance(e, Call):
            return f"{e.name}({', '.join(map(expr, e.args))}):{e.dtype}"
        if isinstance(e, Cast):
            return f"{e.dtype}({expr(e.value)})"
        raise TypeError(type(e))

    def stmt(s, depth):
        pad = "  " * depth
        if isinstance(s, For):
            lines.append(f"{pad}for {expr(s.loop_var)} in [{expr(s.min)}, "
                         f"+{expr(s.extent)}) {s.kind} {s.thread_tag}")
            stmt(s.body, depth + 1)
        elif isinstance(s, IfThenElse):
            lines.append(f"{pad}if {expr(s.condition)}")
            stmt(s.then_body, depth + 1)
        elif isinstance(s, SeqStmt):
            for part in s.stmts:
                stmt(part, depth)
        elif isinstance(s, AttrStmt):
            node = _name(s.node.name) if isinstance(s.node, Buffer) else s.node
            lines.append(f"{pad}attr {s.key} {node} {s.value}")
            stmt(s.body, depth + 1)
        elif isinstance(s, BufferStore):
            lines.append(f"{pad}{_name(s.buffer.name)}"
                         f"[{', '.join(map(expr, s.indices))}] = {expr(s.value)}")
        elif isinstance(s, IntrinsicStmt):
            lines.append(f"{pad}{s.name}({[_name(b.name) for b in s.inputs]}, "
                         f"{[[expr(i) for i in o] for o in s.input_offsets]}) -> "
                         f"{_name(s.output.name)}{[expr(i) for i in s.output_offset]} "
                         f"{s.reduction_update}")
        else:
            lines.append(f"{pad}{s!r}")

    stmt(func.body, 0)
    return lines


def _features(func):
    f = tir.extract_features(func)
    return repr((list(f.to_vector()), f.flops, f.int_ops, f.intrinsic_flops,
                 f.store_count, sorted(f.scope_bytes.items()),
                 sorted(f.scope_unique_bytes.items()),
                 sorted(f.allocation_bytes.items())))


def _differs(task, config):
    """Whether ``Task.lower`` (recorded or replayed) and a fresh lowering of
    ``config`` disagree on the program, its name or its features."""
    got = task.lower(config)
    schedule, tensors = task.instantiate(config)
    want = tir.lower(schedule, tensors, name=f"{task.name}_c{config.index}")
    return (got.name != want.name or _program(got) != _program(want)
            or _features(got) != _features(want))


def _bucket(task, config):
    return LOWERED_CACHE.peek(task._cache_prefix + (config.structure()[0],), ())


def _sample(task, count, seed):
    """Seeded configs, each followed by a neighbour that changes one knob:
    same-class pairs and configs that break one condition of a class."""
    rng = random.Random(seed)
    space = task.config_space
    configs = []
    for config in space.sample(count, rng):
        configs.append(config)
        knobs = space.knob_indices(config.index)
        position = rng.randrange(len(knobs))
        knobs[position] = rng.randrange(space.dims[position])
        configs.append(space.get(space.flat_index(knobs)))
    return configs


def test_replay_is_the_lowering_of_every_template_and_target():
    """Replayed programs equal fresh lowerings (program and features), and
    the sample has configs replayed from another config's recording as well
    as configs whose bucket had classes none of whose conditions held."""
    clear_eval_caches()
    replayed = condition_broken = 0
    labels = []
    for label, task in _tasks():
        labels.append(label)
        count = 64 if label.startswith("conv2d_28/") else 16
        for config in _sample(task, count, seed=3):
            bucket = _bucket(task, config)
            matched = any(r.values(config.structure()[1]) is not None
                          for r in bucket)
            replayed += matched
            condition_broken += bool(bucket) and not matched
            assert not _differs(task, config), f"{label} {config}"
    assert len(labels) == 16
    assert replayed >= 180 and condition_broken >= 24
    stats = eval_cache_stats()["lowered"]
    assert stats["hits"] == replayed
    clear_eval_caches()
    assert eval_cache_stats()["lowered"]["size"] == 0


def test_a_fill_thread_count_either_side_of_its_cap_shares_a_class():
    """The cuda conv template caps its cooperative fills at 256 threads with
    a value choice on the tape (``te.trace.smaller``), not a recorded
    comparison: two configs of one bucket whose ``tile_f[1] * tile_yx[1]``
    is 64 and 448 share one recorded class, and each replay is its plain
    lowering."""
    clear_eval_caches()
    task = dict(_tasks())["conv2d_28/cuda"]
    below, above = (task.config_space.get(index) for index in (26, 89))
    threads = [config["tile_f"].size[1] * config["tile_yx"].size[1]
               for config in (below, above)]
    assert threads[0] < 256 < threads[1]
    assert below.structure()[0] == above.structure()[0]
    task.lower(below)                   # opens the bucket
    assert not _differs(task, below)    # records the class
    assert not _differs(task, above)    # replays it
    assert len(_bucket(task, above)) == 1
    assert eval_cache_stats()["lowered"]["hits"] == 1
    clear_eval_caches()


def test_a_recording_that_forgets_a_condition_is_caught():
    """Perturbation: for a config whose bucket holds a class whose path
    condition it breaks, drop from that class the few recorded comparisons
    the config gives the other outcome (one decision of the lowering: a
    guard, an identity, a wrapped tile).  The class then replays a wrong
    program for it, and the comparison above says so.  (About half of those
    comparisons decide nothing this config's program shows — a replay
    without them is still right — so not every drop is a wrong replay: 24
    of 46 here.)"""
    clear_eval_caches()
    caught = tried = 0
    for label, task in _tasks():
        if not label.startswith(("conv2d/cuda", "depthwise_conv2d/")):
            continue
        for config in _sample(task, 32, seed=3):
            factors = config.structure()[1]
            for replay in _bucket(task, config):
                broken = replay.tape.broken_checks(factors)
                if not 1 <= len(broken) <= 3:
                    continue
                tried += 1
                honest = replay.tape
                for position in reversed(broken):
                    replay.tape = replay.tape.without_check(position)
                try:
                    caught += _differs(task, config)
                finally:
                    replay.tape = honest
                break
            task.lower(config)
    assert tried >= 30
    assert caught >= 20


def _named(features):
    """``features`` with buffer names without the name counter's suffix: a
    replayed config keeps the names of its class's recording."""
    named = copy.copy(features)
    named.buffer_access = {
        _name(name): dataclasses.replace(access, buffer_name=_name(name))
        for name, access in features.buffer_access.items()}
    return named


def _fresh_features(task, config):
    schedule, tensors = task.instantiate(config)
    return _named(tir.extract_features(tir.lower(schedule, tensors)))


def test_the_plan_computes_what_the_tree_walk_computes():
    """A config of a recorded class is featurised from the class's plan,
    with no tree: its features equal those of a fresh lowering's tree, as
    whole ``ProgramFeatures`` (regions, buffer accesses, thread extents and
    allocations included), on every template and target."""
    clear_eval_caches()
    planned = 0
    for label, task in _tasks():
        count = 64 if label.startswith("conv2d_28/") else 16
        for config in _sample(task, count, seed=3):
            factors = config.structure()[1]
            planned += any(r.values(factors) is not None
                           for r in _bucket(task, config))
            assert (_named(task.features_of(config.index))
                    == _fresh_features(task, config)), f"{label} {config}"
    assert planned >= 180
    clear_eval_caches()


def test_the_last_run_of_an_index_asks_no_bounds(monkeypatch):
    """Past every loop an index reads, each of them is at 0 and each traced
    constant is a point, so the plan decides that run's width (1.0) when it
    is compiled: evaluating a replayed cuda conv class asks ``eval_bounds``
    for the other runs only.  A last-run call is one where every loop the
    program reads is the shared zero interval."""
    clear_eval_caches()
    task = dict(_tasks())["conv2d_28/cuda"]
    replayed = []
    for config in _sample(task, 32, seed=3):
        task.lower(config)
        factors = config.structure()[1]
        replayed += [(replay, replay.values(factors))
                     for replay in _bucket(task, config)
                     if replay.values(factors) is not None]
    assert replayed
    replay, values = replayed[0]
    last_runs = []
    real = analysis.eval_bounds

    def spy(program, ranges):
        last_runs.append(all(ranges[key] is analysis._ZERO_BOUNDS
                             for code, key in program
                             if code == _B_VAR and key >= 0))
        return real(program, ranges)

    monkeypatch.setattr(analysis, "eval_bounds", spy)
    replay.features(values)
    assert last_runs and not any(last_runs)
    clear_eval_caches()


def test_a_plan_that_reads_a_shifted_slot_is_caught():
    """Perturbation: point one loop extent of a class's plan at the next
    tape output.  For a config of the class whose two outputs differ, the
    plan then computes other features than the config's tree has, and the
    comparison above says so."""
    clear_eval_caches()
    caught = tried = 0
    for label, task in _tasks():
        if not label.startswith(("conv2d/cuda", "depthwise_conv2d/")):
            continue
        for config in _sample(task, 32, seed=3):
            task.lower(config)
            factors = config.structure()[1]
            for replay in _bucket(task, config):
                values = replay.values(factors)
                if values is None:
                    continue
                want = _fresh_features(task, config)
                # (kind, extent, tag, enclosing nest) per loop, kept flat
                loops = replay.plan._loops
                for position in range(1, len(loops), 4):
                    ref, outer = loops[position], loops[position + 2]
                    shifted = (ref + 1) % len(values)
                    if (outer is None or ref >= len(values)
                            or values[shifted] == values[ref]):
                        continue
                    plan = copy.copy(replay.plan)
                    plan._loops = (loops[:position] + (shifted,)
                                   + loops[position + 1:])
                    tried += 1
                    caught += _named(plan.evaluate(values)) != want
                assert _named(replay.features(values)) == want
                break
    assert tried >= 1000
    assert caught == tried
    clear_eval_caches()


#: retained bytes per recorded class, over the classes of 96 seeded configs
#: of resnet-18's second conv2d on cuda and arm_cpu: 26,331 with Python 3.11
#: (about 17.7 KB of program and 11 KB of tape for a cuda class; the class
#: cache holds 64 buckets of at most 8 classes)
RETAINED_BYTES_PER_CLASS = 32 * 1024


def test_a_recorded_class_keeps_plain_data_only():
    """A cached class is a program of plain tuples and a tape: it keeps no
    node of the tree it was recorded from, so it costs little memory and
    nothing the collector has to walk again and again."""
    from repro.autotvm import extract_tasks
    from repro.frontend import get_model

    clear_eval_caches()
    samples = []
    for target in ("cuda", "arm_cpu"):
        task = [t for t in extract_tasks(get_model("resnet-18"), target)
                if t.operator == "conv2d"][1]
        samples.append((task, task.config_space.sample(48, random.Random(0))))
    for task, configs in samples:
        task.lower(configs[0])          # lazy imports, interned immediates
    clear_eval_caches()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for task, configs in samples:
            for config in configs:
                task.lower(config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    classes = sum(len(bucket) for bucket in LOWERED_CACHE._data.values())
    assert classes >= 24
    assert retained / classes < RETAINED_BYTES_PER_CLASS
    clear_eval_caches()


def test_a_template_the_tape_cannot_follow_is_lowered_plainly():
    """A template that turns a split factor into a plain ``int`` leaves the
    tape: its configs are lowered without a recording, and still right."""
    from repro import te
    from repro.autotvm import Task

    def template(cfg, n):
        A = te.placeholder((n,), name="A")
        B = te.compute((n,), lambda i: A[i] * 2.0, name="B")
        s = te.create_schedule(B.op)
        tile = cfg.define_split("tile", n, num_outputs=2)
        s[B].split(B.op.axis[0], factor=int(tile.size[1]))
        return s, [A, B]

    clear_eval_caches()
    task = Task("untraced", template, (12,), create_target("arm_cpu"))
    for config in list(task.config_space) * 2:
        assert not _differs(task, config)
    assert eval_cache_stats()["lowered"]["hits"] == 0
    assert not any(LOWERED_CACHE._data.values())
    clear_eval_caches()
