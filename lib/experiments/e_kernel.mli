(** E15 — compiled kernel vs string kernel on the certain-answer scan.

    Times {!Vardi_certain.Engine.answer} with [~kernel:Compiled] and
    [~kernel:Strings] on the E1 workload family (|C| = 7, unknowns
    0–7) plus the E1-medium instance (|C| = 16, 2 unknowns), reporting
    the speedup and an equality check per row. The speedup should grow
    with the partition count: the compiled kernel amortizes its
    per-scan interning and compilation across structures, and shares
    quotient prefixes along the partition-enumeration tree. *)

val e15 : unit -> Table.t
