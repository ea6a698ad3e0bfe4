import re

import pytest

from mklang import listings
from mklang.cli import EXIT_INTERNAL, main
from mklang.interpreter import Interpreter


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_success(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "(1 + 2) logCr")
    assert run_cli(["run", path]) == 0
    assert capsys.readouterr().out == "3\n"


def test_run_syntax_error_exits_1(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "1 +")
    assert run_cli(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "syntax error" in captured.err


def test_run_runtime_error_exits_2_with_partial_output(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "'pre' logCr. Object new boom")
    assert run_cli(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "pre\n"
    assert "doesNotUnderstand" in captured.err
    assert "top-level" in captured.err


def test_run_halt_exits_3_with_trace(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "'pre' logCr. Object new halt")
    assert run_cli(["run", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "pre\n"
    assert "halted:" in captured.err
    assert "Object>>halt" in captured.err


def test_missing_file_exits_64(capsys):
    assert run_cli(["run", "/nonexistent/p.mk"]) == 64
    assert "mklang:" in capsys.readouterr().err


def test_usage_errors_exit_64(capsys):
    assert run_cli([]) == 64
    assert run_cli(["frobnicate"]) == 64
    assert run_cli(["bench-overhead", "bogus"]) == 64
    capsys.readouterr()


def test_run_seed_changes_random(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "Random new next logCr")
    run_cli(["run", path, "--seed", "5"])
    first = capsys.readouterr().out
    run_cli(["run", path, "--seed", "5"])
    again = capsys.readouterr().out
    run_cli(["run", path, "--seed", "6"])
    other = capsys.readouterr().out
    assert first == again
    assert first != other


def test_listings_all_pass(capsys):
    assert run_cli(["listings"]) == 0
    out = capsys.readouterr().out
    assert "7/7 pass" in out
    assert out.count("pass") >= 7


def test_listings_single_index(capsys):
    assert run_cli(["listings", "1"]) == 0
    assert "1/1 pass" in capsys.readouterr().out
    assert run_cli(["listings", "99"]) == 64
    capsys.readouterr()


def test_a_listing_that_fails_or_raises_is_a_fault_of_mklang(monkeypatch,
                                                              capsys):
    """A bundled listing that fails, or whose run raises an MkError, is
    reported as FAIL and exits 70, not 1 (a syntax error of a program) and
    not with a Python traceback."""
    def failing(seed=0):
        return False, "1\n", "2\n"

    def raising(seed=0):
        return True, "", Interpreter(seed=seed).run("nil frobnicate").output

    monkeypatch.setattr(listings, "LISTINGS",
                        (("fails", failing), ("raises", raising)))
    assert run_cli(["listings"]) == EXIT_INTERNAL == 70
    out = capsys.readouterr().out
    assert out == ("listing 1 (fails): FAIL\n"
                   "  expected: '1\\n'\n"
                   "  actual:   '2\\n'\n"
                   "listing 2 (raises): FAIL\n"
                   "  error: UndefinedObject doesNotUnderstand: #frobnicate\n"
                   "0/2 pass\n")
    assert run_cli(["listings", "2"]) == 70
    assert "1/1 pass" not in capsys.readouterr().out
    assert run_cli(["listings", "3"]) == 64
    capsys.readouterr()


def test_dump_ast_whole_program(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "class A [ m [ ^ 1 + 2 ] ]\nA new m")
    assert run_cli(["dump-ast", path]) == 0
    out = capsys.readouterr().out
    assert "ClassDef" in out and "MessageSend" in out


def test_dump_ast_single_method(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "class A [ m [ ^ 1 + 2 ] ]")
    assert run_cli(["dump-ast", path, "--class", "A", "--selector", "m"]) == 0
    out = capsys.readouterr().out
    assert "MethodDef" in out and "ClassDef" not in out
    # --class without --selector is a usage error.
    assert run_cli(["dump-ast", path, "--class", "A"]) == 64
    capsys.readouterr()


def test_dump_ast_syntax_error(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "class [")
    assert run_cli(["dump-ast", path]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("class_name, selector", [("Nope", "m"),
                                                  ("A", "nope")])
def test_dump_ast_unknown_method_is_a_usage_error(tmp_path, capsys,
                                                  class_name, selector):
    path = write(tmp_path, "p.mk", "class A [ m [ ^ 1 ] ]")
    assert run_cli(["dump-ast", path, "--class", class_name,
                    "--selector", selector]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mklang: ")


def test_dump_ast_load_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "class A extends Nope [ ]")
    assert run_cli(["dump-ast", path]) == 2
    assert capsys.readouterr().err == "error: unknown superclass Nope\n"


def test_run_slots_on_an_array_subclass_exit_2(tmp_path, capsys):
    path = write(tmp_path, "p.mk",
                 "class A2 extends Array [ | x | setX [ x := 3. ^ x ] ]\n"
                 "A2 new setX")
    assert run_cli(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("runtime error: slot x declared in A2")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["run", "dump-ast"])
def test_a_file_that_is_not_utf8_exits_64(tmp_path, capsys, command):
    path = tmp_path / "p.mk"
    path.write_bytes(b"\xff\xfe 1 logCr")
    assert run_cli([command, str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mklang: %s is not UTF-8 text" % path)


@pytest.mark.parametrize("command", ["run", "dump-ast"])
def test_a_digit_int_cannot_read_is_a_syntax_error_exit_1(tmp_path, capsys,
                                                          command):
    # "²" is a digit to `str.isdigit` but not to `int`.
    path = write(tmp_path, "p.mk", "x := 2²")
    assert run_cli([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "syntax error: unexpected character '²'" in captured.err
    assert "Traceback" not in captured.err


def test_bench_overhead_records_format(capsys):
    assert run_cli(["bench-overhead", "send", "--budget", "0.01",
                    "--format", "records"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert all(line.startswith("scenario=send/") for line in out)


def test_bench_overhead_bad_budget(capsys):
    for budget in ("0", "-1", "nan", "inf"):
        assert run_cli(["bench-overhead", "send", "--budget", budget]) == 64
        err = capsys.readouterr().err
        assert err.startswith("mklang: ") and "Traceback" not in err


def test_bench_install_text_and_records(capsys):
    assert run_cli(["bench-install", "20"]) == 0
    assert "methods: 20" in capsys.readouterr().out
    assert run_cli(["bench-install", "20", "--format", "records"]) == 0
    assert capsys.readouterr().out.startswith("methods=20")
    assert run_cli(["bench-install", "-3"]) == 64
    capsys.readouterr()


def test_run_deep_recursion_is_a_stack_overflow_exit_2(tmp_path, capsys):
    path = write(tmp_path, "p.mk", """class D [
    down: n [ n = 0 ifTrue: [ ^ 0 ]. ^ (self down: n - 1) + 1 ]
]
'pre' logCr. (D new down: 400) logCr
""")
    assert run_cli(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "pre\n"
    assert captured.err.splitlines() == [
        "runtime error: stack overflow", "  top-level (%s:90..105)" % path]


def test_run_deep_nesting_is_a_syntax_error_exit_1(tmp_path, capsys):
    path = write(tmp_path, "p.mk",
                 "'pre' logCr. %s1%s logCr" % ("(" * 300, ")" * 300))
    assert run_cli(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "syntax error: nesting deeper than" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("source", [
    "1%s logCr" % (" + 1" * 1200),
    "1%s" % (" negated" * 1200),
    "class A [ m [ ^ 1%s ] ]\nA new m logCr" % (" + 1" * 1200),
], ids=["binary", "unary", "in-method"])
def test_run_long_send_chain_is_a_stack_overflow_exit_2(tmp_path, capsys,
                                                        source):
    # A chain is not nesting: it loads, and evaluating it deeper than
    # Python's limit fails at run time like deep recursion does.
    path = write(tmp_path, "p.mk", source)
    assert run_cli(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "runtime error: stack overflow" in captured.err
    assert "Traceback" not in captured.err


UNCALLED_CHAIN = "class A [ m [ ^ 1%s ] ]\n'loaded' logCr" % (" + 1" * 5000)


def test_run_a_long_send_chain_in_an_uncalled_method(tmp_path, capsys):
    path = write(tmp_path, "p.mk", UNCALLED_CHAIN)
    assert run_cli(["run", path]) == 0
    assert capsys.readouterr() == ("loaded\n", "")


def test_dump_ast_a_long_send_chain(tmp_path, capsys):
    path = write(tmp_path, "p.mk", UNCALLED_CHAIN)
    assert run_cli(["dump-ast", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ClassDef#")
    # ClassDef, MethodDef, Sequence, Return, 5000 sends, then a literal.
    assert max(len(l) - len(l.lstrip()) for l in lines) == 2 * 5004


# A pin of `dump-ast` output: a class with slots, a keyword method with a
# temp, a literal array, a block with a parameter and a `^`. Node ids are
# process-wide, so the dump's ids are counted from its lowest one; every
# other byte, spans included, is compared as printed.
PINNED_SOURCE = """"an account"
class Acct [ | balance log |
    deposit: amount note: text [ | old |
        old := balance.
        balance := old + amount.
        #(1 #two 'three' true nil) do: [ :x | log := x ].
        ^ self ]
]
| a | a := Acct new. a deposit: 5 note: 'n'
"""

PINNED_DUMP = """\
ClassDef#19 Acct [13..216]
  TempDecl#1  [26..41]
  MethodDef#18 deposit:note: (amount text) [46..214]
    TempDecl#2  [75..82]
    Sequence#17  [91..212]
      Assignment#4 old [91..105]
        VarRead#3 balance [98..105]
      Assignment#8 balance [115..138]
        MessageSend#7 + [126..138]
          VarRead#5 old [126..129]
          VarRead#6 amount [132..138]
      MessageSend#14 do: [148..196]
        LiteralArray#9 #(1 two 'three' true nil) [148..174]
        Block#13  (x) [179..196]
          Sequence#12  [186..194]
            Assignment#11 log [186..194]
              VarRead#10 x [193..194]
      Return#16  [206..212]
        SelfRef#15 self [208..212]
Sequence#28  [223..260]
  TempDecl#20  [217..222]
  Assignment#23 a [223..236]
    MessageSend#22 new [228..236]
      VarRead#21 Acct [228..232]
  MessageSend#27 deposit:note: [238..260]
    VarRead#24 a [238..239]
    Literal#25 5 [249..250]
    Literal#26 'n' [257..260]
"""


def test_dump_ast_pinned_output(tmp_path, capsys):
    path = write(tmp_path, "p.mk", PINNED_SOURCE)
    assert run_cli(["dump-ast", path]) == 0
    captured = capsys.readouterr()
    node_id = re.compile(r"^( *[A-Za-z]+#)(\d+)", re.M)
    base = min(int(m.group(2)) for m in node_id.finditer(captured.out)) - 1
    rebased = node_id.sub(
        lambda m: m.group(1) + str(int(m.group(2)) - base), captured.out)
    assert (rebased, captured.err) == (PINNED_DUMP, "")


def test_run_reopened_kernel_class_keeps_its_superclass(tmp_path, capsys):
    path = write(tmp_path, "p.mk",
                 "class OrderedCollection [ ]\n"
                 "| c | c := OrderedCollection new. c add: 1. c add: 2.\n"
                 "c size logCr")
    assert run_cli(["run", path]) == 0
    assert capsys.readouterr() == ("2\n", "")


def test_run_moving_a_kernel_class_exits_2(tmp_path, capsys):
    path = write(tmp_path, "p.mk",
                 "class OrderedCollection extends Object [ ]\n"
                 "(OrderedCollection new add: 1) logCr")
    assert run_cli(["run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("runtime error: class OrderedCollection is "
                            "defined by the kernel; its superclass must "
                            "stay Array\n")


def test_run_internal_error_exits_70(tmp_path, capsys, monkeypatch):
    def broken(self, source, file="<string>"):
        self.write("pre\n")
        raise KeyError("lost")

    monkeypatch.setattr(Interpreter, "run", broken)
    path = write(tmp_path, "p.mk", "1 logCr")
    assert run_cli(["run", path]) == EXIT_INTERNAL == 70
    captured = capsys.readouterr()
    assert captured.out == "pre\n"
    assert captured.err == "internal error: KeyError: 'lost'\n"


def test_run_a_primitive_error_prints_its_trace_exit_2(tmp_path, capsys):
    path = write(tmp_path, "p.mk", "| x | x := 3 + nil.")
    assert run_cli(["run", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "runtime error: an Integer argument is required"
    assert err[1] == "  top-level (%s:11..18)" % path


def test_run_a_failed_link_prints_error_and_its_trace_exit_2(tmp_path,
                                                             capsys):
    path = write(tmp_path, "p.mk", "class A [ m [ ^ 1 ] ]\n"
                 "(Reflect class: A selector: #m) link: MetaLink new")
    assert run_cli(["run", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: link is not fully configured")
    assert err[1] == "  top-level (%s:22..72)" % path


def test_run_a_link_that_fails_as_it_fires_prints_its_trace_exit_2(
        tmp_path, capsys):
    path = write(tmp_path, "p.mk", "class A [ m [ ^ 3 + 4 ] ]\n| l |\n"
                 "l := MetaLink new metaObject: [ :v | v ].\n"
                 "l selector: #value:. l arguments: #(value). "
                 "l control: #before.\n"
                 "((Reflect class: A selector: #m) sendsOf: #+) first link: l.\n"
                 "A new m")
    assert run_cli(["run", path]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == ("error: #value is not available on a message node in "
                      "before phase")
    assert err[1].startswith("  A>>m (%s:" % path)
    assert err[2].startswith("  top-level (%s:" % path)
