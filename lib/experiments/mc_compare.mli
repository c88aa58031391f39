(** Shared scaffolding for circuit-level VS-vs-golden Monte Carlo
    comparisons: run the same measurement n times on each statistical
    technology and summarize how close the two distributions are. *)

type pair = {
  label : string;
  golden : float array;
  vs : float array;
  ks : float;                (** two-sample Kolmogorov–Smirnov distance *)
  ks_p : float;
  rel_mean_diff : float;
  rel_std_diff : float;
  overlap : float;           (** KDE overlap in [0,1] *)
}

val set_default_retry : Vstat_runtime.Runtime.retry_policy -> unit
(** Process-wide default retry policy for every comparison run (the CLIs'
    [--retry N]); explicit [?retry] arguments win.  Default:
    {!Vstat_runtime.Runtime.no_retry}. *)

val ambient_retry : unit -> Vstat_runtime.Runtime.retry_policy
val ambient_checkpoint : unit -> Vstat_runtime.Checkpoint.settings option
val ambient_deadline : unit -> (unit -> bool) option

val ambient_signals : unit -> int list
(** Read back the process-wide defaults above, for experiments (e.g. the
    rare-event ones) that drive {!Vstat_rare} estimators directly instead
    of going through {!collect_run} but must honor the same CLI-installed
    resilience knobs. *)

val set_default_inject : Vstat_device.Fault_inject.config option -> unit
(** Process-wide default fault-injection config (the CLIs'
    [--inject-fault RATE[:KIND]]); explicit [?inject] arguments win.
    Default: no injection. *)

val set_default_checkpoint : Vstat_runtime.Checkpoint.settings option -> unit
(** Process-wide checkpoint settings (the CLIs' [--checkpoint-dir] /
    [--checkpoint-every] / [--resume]).  Persistence only engages for
    measurements that declare a payload codec ([?codec] below, wired for
    {!run}/{!run_many}); others warn once and run unjournaled. *)

val set_default_deadline : (unit -> bool) option -> unit
(** Process-wide wall-clock watchdog (the CLIs' [--deadline SEC], built
    with {!Vstat_runtime.Deadline.watchdog}).  One watchdog instance is
    shared by every subsequent run, so a batch of experiments degrades
    together: the run in flight when the budget expires stops at a sample
    boundary, checkpoints, and reports a partial result; later runs report
    what little they evaluate or fail fast with a clear message. *)

val set_default_signals : int list -> unit
(** Signals trapped for graceful shutdown during runs (the CLIs install
    [SIGINT; SIGTERM]).  On delivery the run drains, flushes a final
    snapshot and raises {!Vstat_runtime.Checkpoint.Interrupted}. *)

val collect_run :
  ?jobs:int ->
  ?max_failure_frac:float ->
  ?retry:Vstat_runtime.Runtime.retry_policy ->
  ?inject:Vstat_device.Fault_inject.config ->
  ?codec:'a Vstat_runtime.Checkpoint.codec ->
  label:string ->
  n:int ->
  tech_of_rng:(Vstat_util.Rng.t -> Vstat_cells.Celltech.t) ->
  rng:Vstat_util.Rng.t ->
  measure:(Vstat_cells.Celltech.t -> 'a) ->
  unit ->
  'a Vstat_runtime.Runtime.run
[@@vstat.allow "dead-export"] (* test seam: the tests read the raw run *)
(** One Monte Carlo sweep: sample [i] builds a technology from its own RNG
    substream, optionally arms a deterministic injected fault
    ({!Vstat_cells.Celltech.with_fault_injection}, keyed by sample index
    and retry attempt), and measures under ambient solver options
    escalated per attempt ({!Vstat_circuit.Engine.escalate} inside
    {!Vstat_circuit.Engine.with_options}).
    {!Vstat_runtime.Runtime.check_budget} enforces [max_failure_frac]
    (default 0.2) with a per-category census.  Returns the full run record
    (per-sample cells, attempt counts, retry/recovery stats, engine
    tallies) — what the chaos benches and failure-path tests inspect.

    Checkpointing/deadlines: runs route through
    {!Vstat_runtime.Checkpoint.run}.  When checkpoint settings are armed
    and a [codec] is given, completed samples are journaled under [label]
    and a resumed run replays only incomplete indices (bit-identical
    results).  When the process deadline expires mid-run the returned run
    is the completed subset ([stats.n] = evaluated count, logged as
    partial); with fewer than 2 completed samples it raises [Failure]
    instead.  A trapped signal raises
    {!Vstat_runtime.Checkpoint.Interrupted} after the final flush. *)

val run :
  ?jobs:int ->
  ?max_failure_frac:float ->
  ?retry:Vstat_runtime.Runtime.retry_policy ->
  ?inject:Vstat_device.Fault_inject.config ->
  Vstat_core.Pipeline.t ->
  label:string ->
  vdd:float ->
  n:int ->
  seed:int ->
  measure:(Vstat_cells.Celltech.t -> float) ->
  pair
(** [measure tech] must draw fresh devices from [tech] (each call is one
    Monte Carlo sample).  Sampling runs on {!Vstat_runtime.Runtime}
    ([jobs] workers; sample [i] always sees substream [i], so results do
    not depend on the worker count).  Failed samples (convergence or
    measurement failures) are captured, optionally retried under escalated
    solver options, and skipped once dead; if more than [max_failure_frac]
    (default 0.2) of either model's samples fail, the run raises [Failure]
    with per-category failure counts in the message. *)

val run_many :
  ?jobs:int ->
  ?max_failure_frac:float ->
  ?retry:Vstat_runtime.Runtime.retry_policy ->
  ?inject:Vstat_device.Fault_inject.config ->
  Vstat_core.Pipeline.t ->
  label:string ->
  vdd:float ->
  n:int ->
  seed:int ->
  measure:(Vstat_cells.Celltech.t -> float list) ->
  pair list
(** Like {!run} for measurements that return several observables per sample
    (e.g. delay and leakage); returns one pair per observable position. *)

val pp_pair : Format.formatter -> pair -> unit
(** One summary block: moments of both distributions, agreement metrics and
    density sparklines. *)
