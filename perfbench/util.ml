(* Clock, quantiles, allocation counters, process memory and a minimal
   JSON printer: everything the benchmark measures with, in one place
   so every metric uses the same definitions. *)

let now () = Unix.gettimeofday ()
let ms_since t0 = (now () -. t0) *. 1000.

(* Quantile by linear interpolation between closest ranks over the
   sorted sample — the definition Python's [statistics.quantiles(...,
   method='inclusive')] uses.  [nan] on an empty sample. *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* [nan] on an empty sample or one holding a value that is not
   positive. *)
let geomean = function
  | [] -> Float.nan
  | xs -> exp (mean (List.map (fun x -> if x > 0. then log x else Float.nan) xs))

(* Words allocated so far by the calling domain: [Gc.minor_words] counts
   the minor heap exactly, and [Gc.quick_stat] adds the blocks allocated
   directly in the major heap (its promoted words were already counted
   as minor words).  The layer probes run on the main domain with the
   server idle. *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* [measure f] runs [f] once: its result, wall milliseconds, words. *)
let measure f =
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  let ms = ms_since t0 in
  (r, ms, words () -. w0)

(* [VmHWM] (peak resident set) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  scan ()

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* [field line key] reads the value of [key=value] out of a reply
   line. *)
let field line key =
  let prefix = key ^ "=" in
  List.find_map
    (fun tok ->
      if String.starts_with ~prefix tok then
        Some (String.sub tok (String.length prefix)
                (String.length tok - String.length prefix))
      else None)
    (String.split_on_char ' ' line)

let int_field line key = Option.bind (field line key) int_of_string_opt
let float_field line key = Option.bind (field line key) float_of_string_opt

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec json_to_string = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.1f" f
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> "\"" ^ Vplan.Trace.json_escape s ^ "\""
  | Bool b -> string_of_bool b
  | Arr l -> "[" ^ String.concat "," (List.map json_to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> json_to_string (Str k) ^ ":" ^ json_to_string v) l)
      ^ "}"
