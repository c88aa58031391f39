(** Client side of the [vstatd] protocol.

    Connections are one-shot (one request frame, one response frame), so
    the only stateful part is connect retry: a daemon that is still
    building its pipeline, or briefly gone during a restart, is retried
    with jittered exponential backoff.  The jitter comes from
    {!Vstat_util.Rng.substream} keyed by the attempt number — fully
    deterministic for a given [seed], per the repository's determinism
    contract (no OS randomness, no wall-clock reads). *)

val request :
  ?attempts:int ->
  ?seed:int ->
  socket_path:string ->
  Protocol.request ->
  (Protocol.response, string) result
[@@vstat.allow "dead-export"] (* perfbench: svc health, status, shutdown *)
(** One round-trip.  Connect failures ([ENOENT], [ECONNREFUSED]) are
    retried up to [attempts] times (default 8) with
    backoff [50ms * 2^k * (0.5 + U[0,1))]; protocol and socket errors
    after a successful connect are returned as [Error] immediately. *)

type await_error =
  | Await_quarantined of { attempts : int; detail : string }
      (** the daemon retired the job after it crashed or hung its worker
          [attempts] times; it will never finish *)
  | Await_failed of string  (** timeout, transport or protocol failure *)

val await_error_to_string : await_error -> string

val await :
  ?attempts:int ->
  ?seed:int ->
  ?poll_s:float ->
  ?timeout_s:float ->
  socket_path:string ->
  id:string ->
  unit ->
  (Protocol.summary, await_error) result
(** Poll [Status] until the job reaches a terminal state (default every
    0.1 s, up to 600 s).  [Done] fetches and returns the result;
    [Quarantined] fails fast with {!Await_quarantined} — a quarantined
    job will never finish, so polling on would just burn the timeout.
    [Await_failed] on unknown id, timeout, or transport failure. *)

val submit :
  ?attempts:int ->
  ?seed:int ->
  ?client:string ->
  socket_path:string ->
  spec:Protocol.spec ->
  deadline_s:float ->
  unit ->
  (Protocol.response, string) result
(** [request] on a [Submit] message.  [client] (default ["default"]) is
    the fairness identity the daemon round-robins across; it does not
    affect the job's cache identity. *)
