(** Minimal blocking client for the serve protocol — what the tests
    and the perfbench load generator speak.
    One request line out, one response line back, in order.

    {2 Retries}

    Both retry surfaces use capped exponential backoff with full
    jitter (cap 2 s): attempt [n] sleeps uniformly in
    [[cap_n/2, cap_n]] with [cap_n = min (backoff_ms * 2^n) 2000] ms.
    They retry only outcomes that provably did not execute the
    request: a refused/absent socket on {!connect}, a received [busy]
    response on {!request_retry}. A connection dropped {e after} a
    request was written ([End_of_file]) is never retried here — the
    server may have committed a mutation before dying, and resending
    would double-apply it; that ambiguity is the caller's to resolve
    (see PROTOCOL.md, "Retries and idempotency"). *)

type t

(** [connect ?retries ?backoff_ms path] connects to the Unix-domain
    socket at [path]. With [retries = 0] (default) a single attempt;
    otherwise up to [retries] additional attempts on
    [ENOENT]/[ECONNREFUSED] with backoff from [backoff_ms] (default
    25).
    @raise Unix.Unix_error when the last attempt still fails. *)
val connect : ?retries:int -> ?backoff_ms:int -> string -> t

(** [connect_retry ?attempts ?delay path] retries {!connect} while the
    server is still starting up ([ENOENT]/[ECONNREFUSED]), sleeping a
    fixed [delay] seconds (default [0.05]) between the [attempts]
    (default [100]) tries — the test harness's simpler knob. *)
val connect_retry : ?attempts:int -> ?delay:float -> string -> t

(** [request c j] sends one request and blocks for its response line.
    @raise End_of_file if the server closed the connection first.
    @raise Json.Parse_error on a malformed response (server bug). *)
val request : t -> Json.t -> Json.t

(** [request_retry ?retries ?backoff_ms c j] is {!request}, resending
    (up to [retries] times, default [0]) when the response is the
    [busy] backpressure code. Safe for mutations: [busy] means the
    request was never admitted. *)
val request_retry : ?retries:int -> ?backoff_ms:int -> t -> Json.t -> Json.t

(** [request_line c line] sends a raw line — deliberately malformed
    requests for protocol tests. *)
val request_line : t -> string -> Json.t

val close : t -> unit
