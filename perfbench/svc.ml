(* vstatd-mix: a real vstatd child process driven open loop by this single
   process, on one thread.

   Arrivals follow a schedule made from the seed, in two phases at fixed
   absolute rates: [light] (about a quarter of the daemon's capacity on
   the reference 2-core machine) and [overload] (about one and a half
   times it).  The mix is mostly Idsat n=16 jobs (milliseconds of
   compute, so per-job overhead shows), some SRAM SNM and FO3 inverter
   jobs (tens to a hundred-odd ms) and a fifth repeats of earlier specs,
   which exercise the journal-backed result cache.

   Every job is timed from the moment it was due, so a late generator
   cannot hide a stall.  Completion is observed by polling Status every
   [poll_s] (the stated resolution: 10 ms), due polls served earliest
   first, polls and fetches together capped at [max_poll_rate] per
   second; admission control bounds the jobs out at [queue_max] +
   [nproc] = 10, so the cap does not coarsen the resolution.  Each job's
   first poll falls at a seeded uniform offset into its first interval,
   so observed times are spread evenly over the poll grid instead of
   snapping to multiples of it. *)

open Common
module SP = Vstat_service.Protocol
module SC = Vstat_service.Client
module Rng = Vstat_util.Rng

let queue_max = 8
let bpv_samples = 300
let poll_s = 0.010
let max_poll_rate = 1000.0
let light_rate = 17.0
let overload_rate = 100.0
let light_share = 0.7
let vdd = 0.9

type kind = Idsat | Sram | Inverter

let kind_name = function
  | Idsat -> "idsat"
  | Sram -> "sram_snm"
  | Inverter -> "inverter_tpd"

let spec_of kind ~seed =
  let kind, n =
    match kind with
    | Idsat -> (SP.Idsat, 16)
    | Sram -> (SP.Sram_snm { read = true }, 24)
    | Inverter -> (SP.Inverter_tpd { fanout = 3 }, 12)
  in
  { SP.kind; n; seed; vdd; retry = 2 }

type phase = Light | Overload

type state = Pending | Outstanding | Shed | Done | Failed

type job = {
  idx : int;
  phase : phase;
  due : float;  (** seconds after the schedule start *)
  kind : kind;
  spec : SP.spec;
  repeat : bool;
  mutable state : state;
  mutable sent : float;
  mutable accepted : float;
  mutable id : string;
  mutable cached : bool;
  mutable left_queue : float;  (** first poll that saw it Running or Done *)
  mutable next_poll : float;
  mutable done_at : float;
  mutable submit_rtt : float;
  mutable fetch_rtt : float;
  mutable summary : SP.summary option;
}

(* Kinds come in a fixed block of 20 — 12 Idsat, 2 SRAM, 2 inverter, 4
   repeats — with the slow jobs spread out, so every seed offers the same
   mix and light-phase slow jobs do not pile onto each other by chance;
   the seed moves arrival times, spec seeds and which earlier spec each
   repeat names. *)
let block =
  [|
    `New Idsat; `New Idsat; `New Sram; `New Idsat; `Repeat;
    `New Idsat; `New Idsat; `New Inverter; `New Idsat; `Repeat;
    `New Idsat; `New Idsat; `New Sram; `New Idsat; `Repeat;
    `New Idsat; `New Idsat; `New Inverter; `New Idsat; `Repeat;
  |]

let schedule ~seed ~seconds =
  let rng = Rng.create ~seed in
  let light_end = seconds *. light_share in
  let jobs = ref [] in
  let rec arrive t idx =
    let rate = if t < light_end then light_rate else overload_rate in
    let t = t +. (Rng.uniform rng ~lo:0.5 ~hi:1.5 /. rate) in
    if t < seconds then begin
      let earlier = Array.of_list !jobs in
      let kind, spec, repeat =
        match block.(idx mod Array.length block) with
        | `Repeat ->
          let j = earlier.(Rng.int rng ~bound:idx) in
          (j.kind, j.spec, true)
        | `New k -> (k, spec_of k ~seed:((seed * 100_000) + idx), false)
      in
      jobs :=
        {
          idx;
          phase = (if t < light_end then Light else Overload);
          due = t;
          kind;
          spec;
          repeat;
          state = Pending;
          sent = Float.nan;
          accepted = Float.nan;
          id = "";
          cached = false;
          left_queue = Float.nan;
          next_poll = Float.nan;
          done_at = Float.nan;
          submit_rtt = Float.nan;
          fetch_rtt = Float.nan;
          summary = None;
        }
        :: !jobs;
      arrive t (idx + 1)
    end
  in
  arrive 0.0 0;
  Array.of_list (List.rev !jobs)

(* --- the daemon ---------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let live : int list ref = ref []

let vstatd_exe () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "vstatd.exe" ]

let rec wait_exit pid ~until =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Unix.gettimeofday () < until ->
    Unix.sleepf 0.01;
    wait_exit pid ~until
  | 0, _ ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let reap pid =
  wait_exit pid ~until:(Unix.gettimeofday () +. 30.0);
  live := List.filter (( <> ) pid) !live

(* Kill whatever is still running when the benchmark exits early. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let request d r = SC.request ~attempts:1 ~socket_path:d.socket r

(* Spawn a daemon on a fresh state directory; setup time runs from the
   spawn to its first Health reply. *)
let spawn k =
  let dir = Filename.concat work_dir (Printf.sprintf "vstatd-%d" k) in
  remove_tree dir;
  Vstat_util.Atomic_io.ensure_dir dir;
  let socket = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let exe = vstatd_exe () in
  let t0 = now_ns () in
  let pid =
    Unix.create_process exe
      [|
        exe; "--state-dir"; dir; "--socket"; socket; "--workers";
        string_of_int nproc; "--queue-max"; string_of_int queue_max;
        "--bpv-samples"; string_of_int bpv_samples;
      |]
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let d = { pid; socket } in
  let rec ready () =
    match request d SP.Health with
    | Ok (SP.Health_report _) -> s_since t0
    | _ when s_since t0 > 120.0 -> failwith "vstatd did not answer Health"
    | _ -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.sleepf 0.002;
        ready ()
      | _ -> failwith "vstatd exited during startup")
  in
  let setup_s = ready () in
  (d, setup_s)

let shutdown d =
  (match request d SP.Shutdown with
  | Ok SP.Shutting_down -> ()
  | _ -> check "vstatd-mix:shutdown" false (fun () -> "no Shutting_down ack"));
  reap d.pid

(* A fixed job submitted to every spawned daemon: the values must be
   bit-identical across daemons. *)
let probe_spec = spec_of Idsat ~seed:777

let run_probe d =
  match request d (SP.Submit { spec = probe_spec; deadline_s = 0.0; client = "probe" }) with
  | Ok (SP.Accepted { id; _ }) ->
    let rec wait () =
      match request d (SP.Status { id }) with
      | Ok (SP.Job_status { state = SP.Done; _ }) -> (
        match request d (SP.Result { id }) with
        | Ok (SP.Job_result s) -> s.SP.values
        | _ -> failwith "probe job: no result")
      | Ok (SP.Job_status { state = SP.Queued _ | SP.Running; _ }) ->
        Unix.sleepf 0.002;
        wait ()
      | _ -> failwith "probe job failed"
    in
    wait ()
  | _ -> failwith "probe job not accepted"

(* --- the generator --------------------------------------------------------- *)

let drive d (jobs : job array) ~seed ~t0 =
  let jitter = Rng.create ~seed:(seed + 1) in
  let now () = s_since t0 in
  let requests = ref 0 in
  let req r =
    incr requests;
    request d r
  in
  let outstanding = ref [] in
  let finish j state =
    j.state <- state;
    outstanding := List.filter (fun o -> o != j) !outstanding
  in
  let fail j what =
    check "vstatd-mix:job" false (fun () ->
        Printf.sprintf "job %d (%s): %s" j.idx j.id what);
    finish j Failed
  in
  let submit j =
    j.sent <- now ();
    match
      req (SP.Submit { spec = j.spec; deadline_s = 0.0; client = "perfbench" })
    with
    | Ok (SP.Accepted { id; cached }) ->
      j.accepted <- now ();
      j.submit_rtt <- j.accepted -. j.sent;
      j.id <- id;
      j.cached <- cached;
      j.state <- Outstanding;
      j.next_poll <-
        (if cached then j.accepted
         else j.accepted +. Rng.uniform jitter ~lo:0.0 ~hi:poll_s);
      outstanding := j :: !outstanding
    | Ok (SP.Rejected { reason = SP.Queue_full _ | SP.Over_deadline _ }) ->
      j.submit_rtt <- now () -. j.sent;
      j.state <- Shed
    | Ok _ | Error _ -> fail j "submit not answered"
  in
  let fetch j =
    let t = now () in
    match req (SP.Result { id = j.id }) with
    | Ok (SP.Job_result s) ->
      j.done_at <- now ();
      j.fetch_rtt <- j.done_at -. t;
      j.summary <- Some s;
      finish j Done
    | _ -> fail j "no result"
  in
  let last_poll = ref Float.neg_infinity in
  let poll j =
    last_poll := now ();
    if j.cached then fetch j
    else
      match req (SP.Status { id = j.id }) with
      | Ok (SP.Job_status { state = SP.Queued _; _ }) ->
        j.next_poll <- now () +. poll_s
      | Ok (SP.Job_status { state = SP.Running; _ }) ->
        if Float.is_nan j.left_queue then j.left_queue <- now ();
        j.next_poll <- now () +. poll_s
      | Ok (SP.Job_status { state = SP.Done; _ }) ->
        if Float.is_nan j.left_queue then j.left_queue <- now ();
        fetch j
      | _ -> fail j "status lost or quarantined"
  in
  let n = Array.length jobs in
  let give_up = (if n = 0 then 0.0 else jobs.(n - 1).due) +. 60.0 in
  let min_gap = 1.0 /. max_poll_rate in
  let next = ref 0 in
  while (!next < n || !outstanding <> []) && now () < give_up do
    let t = now () in
    let earliest =
      List.fold_left
        (fun acc j ->
          match acc with
          | Some e when e.next_poll <= j.next_poll -> acc
          | _ -> Some j)
        None !outstanding
    in
    if !next < n && jobs.(!next).due <= t then begin
      submit jobs.(!next);
      incr next
    end
    else
      match earliest with
      | Some j when j.next_poll <= t && t -. !last_poll >= min_gap -> poll j
      | _ ->
        let wake =
          List.fold_left Float.min give_up
            ((if !next < n then [ jobs.(!next).due ] else [])
            @ (match earliest with
              | Some j -> [ Float.max j.next_poll (!last_poll +. min_gap) ]
              | None -> []))
        in
        Unix.sleepf (Float.max 0.0002 (Float.min 0.002 (wake -. t)))
  done;
  List.iter (fun j -> fail j "never finished") !outstanding;
  !requests

(* --- the workload ---------------------------------------------------------- *)

let setup ~reps =
  let spawned =
    List.init reps (fun k ->
        let d, s = spawn k in
        let values = run_probe d in
        if k < reps - 1 then shutdown d;
        (d, s, values))
  in
  let d, _, v0 = List.nth spawned (reps - 1) in
  List.iter
    (fun (_, _, v) ->
      check "vstatd-mix:determinism-across-daemons" (arrays_bit_equal v v0)
        (fun () -> "probe job values differ between daemon instances"))
    spawned;
  (d, median (Array.of_list (List.map (fun (_, s, _) -> s) spawned)))

let ms x = x *. 1e3
let pick f jobs = Array.of_list (List.filter_map f (Array.to_list jobs))

let vstatd_mix ~setup_reps ~trace ~seed ~seconds =
  let d, setup_s = setup ~reps:setup_reps in
  let jobs = schedule ~seed ~seconds in
  let t0 = now_ns () in
  let requests = drive d jobs ~seed ~t0 in
  (* Output checks: every finished job is whole, and every job sharing an
     id returned the same bits. *)
  let by_id = Hashtbl.create 64 in
  Array.iter
    (fun j ->
      match j.summary with
      | Some s ->
        check "vstatd-mix:summary"
          (s.SP.completed = s.SP.n && s.SP.failed = 0 && (not s.SP.partial)
          && Array.length s.SP.values = s.SP.n
          && Array.for_all Float.is_finite s.SP.values)
          (fun () -> Printf.sprintf "job %s: %d/%d samples, %d failed, cause %s"
                       s.SP.id s.SP.completed s.SP.n s.SP.failed s.SP.cause);
        (match Hashtbl.find_opt by_id j.id with
        | None -> Hashtbl.add by_id j.id s.SP.values
        | Some v ->
          check "vstatd-mix:cache-identity" (arrays_bit_equal v s.SP.values)
            (fun () -> "repeat of " ^ j.id ^ " returned different values"))
      | None -> ())
    jobs;
  (match request d SP.Health with
  | Ok (SP.Health_report h) ->
    check "vstatd-mix:health"
      (h.SP.worker_crashes = 0 && h.SP.worker_hangs = 0 && h.SP.quarantined = 0)
      (fun () ->
        Printf.sprintf "%d crashes, %d hangs, %d quarantined"
          h.SP.worker_crashes h.SP.worker_hangs h.SP.quarantined)
  | _ -> check "vstatd-mix:health" false (fun () -> "no Health reply"));
  let peak_rss = peak_rss_mb ~pid:(string_of_int d.pid) () in
  shutdown d;
  let light_end = seconds *. light_share in
  let in_phase p j = j.phase = p in
  let done_ j = j.state = Done in
  let fresh j = done_ j && not j.cached in
  (* Light-phase latency; a job that was shed or failed counts as
     infinitely late. *)
  let light_lat =
    pick
      (fun j ->
        if in_phase Light j then
          Some (if done_ j then ms (j.done_at -. j.due) else Float.infinity)
        else None)
      jobs
  in
  let overload = List.filter (in_phase Overload) (Array.to_list jobs) in
  let overload_done =
    pick (fun j -> if in_phase Overload j && done_ j then Some (ms (j.done_at -. j.due)) else None) jobs
  in
  (* Completion rate in 1 s bins of the overload phase, its first second
     (while the queue fills) left out; per bin, the completions after the
     first over the time from the first to the last.  Throughput is the
     median over bins. *)
  let bins = Int.max 1 (int_of_float (seconds -. light_end) - 1) in
  let rate b =
    let lo = light_end +. 1.0 +. Float.of_int b in
    let t =
      pick
        (fun j ->
          if done_ j && j.done_at >= lo && j.done_at < lo +. 1.0 then
            Some j.done_at
          else None)
        jobs
    in
    Array.sort Float.compare t;
    let k = Array.length t in
    Float.of_int (k - 1) /. (t.(k - 1) -. t.(0))
  in
  let throughput = median (Array.init bins rate) in
  let count p l = List.length (List.filter p l) in
  let repeats = List.filter (fun j -> j.repeat) (Array.to_list jobs) in
  let field f = pick (fun j -> if Float.is_nan (f j) then None else Some (ms (f j))) jobs in
  let waits p =
    pick (fun j -> if in_phase p j && fresh j then Some (ms (j.left_queue -. j.accepted)) else None) jobs
  in
  let run_ms k =
    median
      (pick
         (fun j ->
           match j.summary with
           | Some s when j.kind = k && fresh j -> Some (ms s.SP.wall_s)
           | _ -> None)
         jobs)
  in
  if trace then
    Array.iter
      (fun j ->
        let trace_id = Printf.sprintf "job-%d" j.idx in
        let at s =
          Int64.add t0 (Int64.of_float (s *. 1e9))
        in
        if done_ j then begin
          add_span ~trace_id "service.job" (at j.due) (at j.done_at)
            ~attrs:[ ("cached", if j.cached then 1.0 else 0.0) ];
          add_span ~trace_id ~parent:"service.job" "service.submit" (at j.sent) (at j.accepted);
          if not j.cached then
            add_span ~trace_id ~parent:"service.job" "service.queue" (at j.accepted) (at j.left_queue);
          add_span ~trace_id ~parent:"service.job" "service.fetch"
            (at (j.done_at -. j.fetch_rtt)) (at j.done_at)
        end)
      jobs;
  let n = Array.length jobs in
  let failed = Array.fold_left (fun a j -> if j.state = Failed then a + 1 else a) 0 jobs in
  {
    end_to_end =
      [
        m "setup_s" "s" setup_s;
        m "throughput_per_s" "1/s" throughput;
        m "latency_ms_p50" "ms" (median light_lat);
        m "latency_ms_p95" "ms" (quantile light_lat 0.95);
      ];
    per_layer =
      [
        m "runtime.peak_rss_mb" "MB" peak_rss;
        m "service.submit_rtt_ms_p50" "ms" (median (field (fun j -> j.submit_rtt)));
        m "service.submit_rtt_ms_p95" "ms" (quantile (field (fun j -> j.submit_rtt)) 0.95);
        m "service.dispatch_ms_p50" "ms" (median (waits Light));
        m "service.dispatch_ms_p95" "ms" (quantile (waits Light) 0.95);
        m "service.queue_wait_ms_p95" "ms" (quantile (waits Overload) 0.95);
      ]
      @ List.map
          (fun k -> m ("service.run_ms_p50." ^ kind_name k) "ms" (run_ms k))
          [ Idsat; Sram; Inverter ]
      @ [
        m "service.fetch_rtt_ms_p50" "ms" (median (field (fun j -> j.fetch_rtt)));
        m "service.cache_hit_frac" "frac"
          (Float.of_int (count (fun j -> j.cached) repeats)
          /. Float.of_int (List.length repeats));
        m "service.requests_per_job" "count"
          (Float.of_int requests /. Float.of_int n);
        m "service.generator_late_ms_p95" "ms"
          (quantile (field (fun j -> j.sent -. j.due)) 0.95);
        m "service.overload_latency_ms_p95" "ms" (quantile overload_done 0.95);
        m "service.shed_frac" "frac"
          (Float.of_int (count (fun j -> j.state = Shed) overload)
          /. Float.of_int (List.length overload));
      ];
    attempted = n;
    failed;
  }
