(* Measurement plumbing shared by the workloads: clocks, order statistics,
   /proc readings, output checks, the in-memory span buffer and the
   result line.  Everything here runs on the main domain unless noted. *)

let now_ns () = Vstat_runtime.Deadline.now_ns ()
let ns_between a b = Int64.to_float (Int64.sub b a)
let s_since t0 = ns_between t0 (now_ns ()) *. 1e-9

(* Worker count of every parallel part of the benchmark: the machine's
   cores, never the VSTAT_JOBS override, so runs are comparable. *)
let nproc = Domain.recommended_domain_count ()

(* Scratch area inside the checkout (ignored by git and by dune, whose
   scans skip directories starting with '_'). *)
let work_dir = "_perfbench"

let ensure_work_dir () = Vstat_util.Atomic_io.ensure_dir work_dir

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Linear-interpolated quantile (the R-7 / numpy default). *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let h = q *. Float.of_int (n - 1) in
    let lo = int_of_float h in
    let frac = h -. Float.of_int lo in
    if frac = 0.0 then a.(lo)
    else a.(lo) +. (frac *. (a.(Int.min (n - 1) (lo + 1)) -. a.(lo)))
  end

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0.0 xs

(* VmHWM, the peak resident set of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 Float.of_int kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:Float.nan

(* --- output checks ------------------------------------------------------ *)

let failed_checks = ref []

let check name ok detail =
  if not ok then begin
    failed_checks := name :: !failed_checks;
    Printf.eprintf "perfbench: CHECK FAILED %s: %s\n%!" name (detail ())
  end

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let arrays_bit_equal a b =
  Array.length a = Array.length b && Array.for_all2 bits_equal a b

(* --- spans ----------------------------------------------------------------

   A span is one layer boundary crossed by one unit of work: [trace_id]
   groups the spans of one sample or job, [parent] names the span that
   caused it ("" for the root).  Spans are collected in memory and written
   once, after measurement, by [write_trace]. *)

type span = {
  name : string;
  trace_id : string;
  parent : string;
  start_ns : int64;
  end_ns : int64;
  attrs : (string * float) list;
}

let spans : span list ref = ref []

let add_span ?(parent = "") ?(attrs = []) ~trace_id name start_ns end_ns =
  spans := { name; trace_id; parent; start_ns; end_ns; attrs } :: !spans

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let write_trace ~workload ~seed ~summary =
  ensure_work_dir ();
  let path =
    Filename.concat work_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed)
  in
  Out_channel.with_open_text path (fun oc ->
      let kv l =
        String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_float v)) l)
      in
      Printf.fprintf oc "{\"summary\":{%s}}\n" (kv summary);
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"name\":%S,\"trace\":%S,\"parent\":%S,\"start_ns\":%Ld,\
             \"end_ns\":%Ld,\"attrs\":{%s}}\n"
            s.name s.trace_id s.parent s.start_ns s.end_ns (kv s.attrs))
        (List.rev !spans));
  Printf.eprintf "perfbench: %d spans -> %s\n%!" (List.length !spans) path

(* --- results -------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What one workload pass hands back to perfbench.ml. *)
type outcome = {
  end_to_end : metric list;
  per_layer : metric list;
  attempted : int;
  failed : int;  (** units of work lost or failed after retries *)
}

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name
             (json_float x.value) x.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed body
