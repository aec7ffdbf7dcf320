import pytest

from perfbench import workloads
from perfbench.families import FAMILIES
from perfbench.tests.conftest import ROOT


@pytest.fixture(scope="module")
def dt():
    return workloads.Dtalloc(ROOT / "src")


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_family_program_types_and_runs_to_its_promised_observation(dt, family, n):
    prog = FAMILIES[family](n)
    assert prog.name == f"{family}/{n}"
    e = dt.sexpr.parse(prog.text, dt.sexpr.Lang.SOURCE)
    dt.source.src_infer(dt.syntax.Context(), e)
    value = dt.source.src_eval(e)
    assert dt.harness.readback(dt.heap.Config(dt.heap.Heap(), value)) == prog.observation


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_size_is_what_grows(dt, family):
    make = FAMILIES[family]
    nodes = [
        workloads.node_count(dt, dt.sexpr.parse(make(n).text, dt.sexpr.Lang.SOURCE))
        for n in (1, 2, 4, 8)
    ]
    assert nodes == sorted(nodes) and len(set(nodes)) == 4
    assert make(4).text == make(4).text


def test_validation_rejects_a_broken_family(dt):
    broken = workloads.SourceProgram("broken/1", "(fst unit)", ("differential",), None)
    with pytest.raises(dt.errors.TypeCheckError):
        workloads.validate_families(dt, [broken])
