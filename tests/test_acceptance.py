"""End-to-end acceptance checks with one printed verdict per criterion.

Each test prints "criterion N (label): PASS/FAIL" through pytest's own
terminal reporter so the lines stay visible under output capture, then
asserts. Timing limits are generous on purpose; they guard against
order-of-magnitude regressions, not noise.
"""

import subprocess
import sys
import time

import pytest

from flowcheck.benchgen import (
    ALL_VIOLATIONS_CONSTRAINT,
    BenchConfig,
    BenchFeature,
    generate_bench_model,
    run_bench,
)
from flowcheck.constraints import load_constraints, parse_constraint, query, query_many
from flowcheck.extraction import find_all_sequences
from flowcheck.loader import load_model, model_from_data
from flowcheck.oracle import oracle_propagate, oracle_query
from flowcheck.propagation import evaluate_all, propagate, propagation_runs

from conftest import minimal_model_data
from generators import random_constraints, random_small_model

GEO = ("VIOLATION geo WHERE node.ServerLocation.nonEU "
       "AND DATA data.DataSensitivity.Personal & !data.Encryption.Encrypted")


@pytest.fixture(scope="module")
def verdict(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(number, label, ok):
        line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line, file=sys.__stdout__, flush=True)
        return ok

    return emit


def test_criterion_1_running_example(shop_path, shop_no_encrypt_path,
                                     geo_constraints_path, verdict):
    started = time.perf_counter()

    model = load_model(shop_no_encrypt_path)
    sequences = find_all_sequences(model)
    propagated = evaluate_all(model, sequences)
    constraints = load_constraints(geo_constraints_path, model.dictionary)
    violations = query_many(propagated, constraints)["geo"]

    some_violations = len(violations) >= 1
    elements = sequences[0].elements
    on_db = all(
        getattr(elements[v.element_index], "instance_id", None) == "inst.db"
        for v in violations)

    sealed = load_model(shop_path)
    sealed_violations = query_many(
        evaluate_all(sealed, find_all_sequences(sealed)),
        load_constraints(geo_constraints_path, sealed.dictionary))["geo"]

    elapsed = time.perf_counter() - started
    ok = (some_violations and on_db and sealed_violations == []
          and elapsed < 1.0)
    assert verdict(1, "running example", ok), (
        f"violations={len(violations)}, on_db={on_db}, "
        f"sealed={len(sealed_violations)}, elapsed={elapsed:.2f}s")


def test_criterion_2_differential_oracle(verdict):
    started = time.perf_counter()
    discrepancies = 0

    for seed in range(100):
        model = random_small_model(seed)
        for seq in find_all_sequences(model):
            engine = propagate(model, seq)
            naive = oracle_propagate(model, seq)
            for got, want in zip(engine.results, naive.results, strict=True):
                if got != want:
                    discrepancies += 1
            for text in random_constraints(model, seed):
                constraint = parse_constraint(text, model.dictionary)
                got = [(v.element_index, v.variable_names)
                       for v in query(engine, constraint)]
                if got != oracle_query(model, seq, text):
                    discrepancies += 1

    elapsed = time.perf_counter() - started
    ok = discrepancies == 0 and elapsed < 30.0
    assert verdict(2, "differential oracle, 100 models", ok), (
        f"discrepancies={discrepancies}, elapsed={elapsed:.1f}s")


def test_criterion_3_no_repropagation(shop_no_encrypt_path, verdict):
    model = load_model(shop_no_encrypt_path)
    propagated = evaluate_all(model, find_all_sequences(model))
    texts = [
        GEO,
        "VIOLATION always WHERE TRUE AND DATA TRUE",
        "VIOLATION eu_node WHERE node.ServerLocation.EU AND DATA TRUE",
        "VIOLATION enc WHERE TRUE AND DATA data.Encryption.Encrypted",
        ("VIOLATION personal_eu WHERE node.ServerLocation.EU "
         "AND DATA data.DataSensitivity.Personal"),
    ]
    constraints = [parse_constraint(t, model.dictionary) for t in texts]

    runs_before = propagation_runs()
    buckets = query_many(propagated, constraints)
    runs_after = propagation_runs()

    ok = runs_after == runs_before and len(buckets) == 5
    assert verdict(3, "constraint reuse, k=5", ok), (
        f"propagation runs moved {runs_before} -> {runs_after}")


def test_criterion_4_scalability(verdict):
    started = time.perf_counter()
    sizes = (1, 10, 100, 1000, 10000)
    medians = {}
    completed = {}
    for feature in BenchFeature:
        results = run_bench(BenchConfig(feature, sizes=sizes, repetitions=3))
        medians[feature] = {r.size: r.median_ms for r in results}
        completed[feature] = all(r.completed for r in results)

    flat = (BenchFeature.NODE_CHARACTERISTICS, BenchFeature.VARIABLE_ACTIONS,
            BenchFeature.SEFF_PARAMETERS)
    ratios = {f: medians[f][1000] / medians[f][1] for f in flat}
    flat_ok = all(completed[f] and ratios[f] <= 20.0 for f in flat)

    cp = BenchFeature.CHARACTERISTICS_PROPAGATION
    decades = [medians[cp][b] / medians[cp][a]
               for a, b in zip(sizes, sizes[1:])]
    cp_ok = completed[cp] and all(r <= 30.0 for r in decades)

    elapsed = time.perf_counter() - started
    ok = flat_ok and cp_ok and elapsed < 900.0
    detail = ", ".join(f"{f.value}={ratios[f]:.1f}x" for f in flat)
    assert verdict(4, "scalability", ok), (
        f"{detail}; propagation decades="
        f"{[f'{r:.1f}x' for r in decades]}; elapsed={elapsed:.0f}s")


def test_criterion_5_violation_counts_exact(verdict):
    mismatches = []
    for feature in BenchFeature:
        for size in (1, 10, 100, 1000):
            model = generate_bench_model(feature, size)
            propagated = evaluate_all(model, find_all_sequences(model))
            constraint = parse_constraint(
                ALL_VIOLATIONS_CONSTRAINT, model.dictionary)
            count = len(query_many(propagated, [constraint])[constraint.name])
            element_count = sum(len(p) for p in propagated)
            if count != element_count:
                mismatches.append((feature.value, size, count, element_count))

    assert verdict(5, "exact violation counts", not mismatches), mismatches


def _analyze_bytes(model_path, constraints_path):
    proc = subprocess.run(
        [sys.executable, "-m", "flowcheck", "analyze", str(model_path),
         "--constraints", str(constraints_path)],
        capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def permutation_model():
    data = minimal_model_data()
    data["usageScenarios"].append({
        "id": "scn2", "name": "blue walk", "userLabels": ["Color.Blue"],
        "actions": [
            {"type": "variable", "id": "v0",
             "assignments": ["q.Color.Blue := TRUE"]},
            {"type": "call", "id": "v1", "instance": "inst.a",
             "signature": "svc", "bindings": {"p": "q"}},
        ],
    })
    data["usageScenarios"].append({
        "id": "scn3", "name": "idle", "userLabels": [],
        "actions": [{"type": "variable", "id": "w0",
                     "assignments": ["r.Color.Red := TRUE"]}],
    })
    return model_from_data(data)


def test_criterion_6_determinism(shop_no_encrypt_path, geo_constraints_path, verdict):
    # byte-identical process reruns
    first = _analyze_bytes(shop_no_encrypt_path, geo_constraints_path)
    second = _analyze_bytes(shop_no_encrypt_path, geo_constraints_path)
    reruns_identical = first == second

    # permuting the input sequences permutes the outputs and nothing else
    model = permutation_model()
    sequences = find_all_sequences(model)
    perm = [2, 0, 1]
    shuffled = [sequences[i] for i in perm]
    props = evaluate_all(model, sequences)
    props_perm = evaluate_all(model, shuffled)
    permutes = all(props_perm[j] == props[perm[j]] for j in range(len(perm)))

    constraint = parse_constraint(
        "VIOLATION red WHERE TRUE AND DATA data.Color.Red", model.dictionary)
    base = query_many(props, [constraint])["red"]
    perm_violations = query_many(props_perm, [constraint])["red"]
    base_keys = sorted((v.sequence_index, v.element_index, v.element_id,
                        v.variable_names) for v in base)
    mapped = sorted((perm[v.sequence_index], v.element_index, v.element_id,
                     v.variable_names) for v in perm_violations)
    violations_permute = base_keys == mapped and len(base) > 0

    # a variable the caller never bound stays invisible in the callee
    data = minimal_model_data()
    data["usageScenarios"][0]["actions"].insert(1, {
        "type": "variable", "id": "u0b",
        "assignments": ["w.Color.Blue := TRUE"],
    })
    scoped = model_from_data(data)
    seq = find_all_sequences(scoped)[0]
    by_id = {}
    for result in propagate(scoped, seq).results:
        by_id.setdefault(result.element.element_id, result)
    scoping_holds = (
        "w" not in by_id["s0"].variable_names()
        and "w" not in by_id["s1"].variable_names())

    ok = reruns_identical and permutes and violations_permute and scoping_holds
    assert verdict(6, "determinism and scoping", ok), (
        f"reruns_identical={reruns_identical}, permutes={permutes}, "
        f"violations_permute={violations_permute}, scoping={scoping_holds}")
