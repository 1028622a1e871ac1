(* The in-process server fixture and the closed-loop load generator.

   The server is the one the loadgen experiment uses: a [Net_server]
   with the default two workers over [Protocol.handle_lines].  The
   generator is one thread holding at most [nproc] connections, each
   with exactly one request in flight: vplan's clients are planners
   that wait for every reply, so a closed loop is the honest model. *)

open Vplan

type server = {
  shared : Protocol.shared;
  traced : bool Atomic.t;  (** handler instrumentation on/off *)
  net : Net_server.t;
  poller : unit Domain.t;
  port : int;
}

let workers = 2
let queue_capacity = 128

(* In a traced run the handler closure — the bench's own code — times
   [handle_lines] and appends one trailer line to the reply: handler
   start and end, and the service latency and completion time the
   flight recorder holds for the reply's trace id.  The client strips
   the trailer before it counts reply bytes. *)
let trailer_prefix = "~ "

let trace_id text =
  let first = match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text in
  Util.int_field first "trace"

let handler shared ~traced () =
  let sess = Protocol.new_session shared in
  fun lines ->
    if not (Atomic.get traced) then
      let r = Protocol.handle_lines shared sess lines in
      { Net_server.body = r.Protocol.text; close = r.Protocol.close }
    else begin
      let t0 = Util.now () in
      let r = Protocol.handle_lines shared sess lines in
      let t1 = Util.now () in
      let service_ms, service_end =
        match Option.bind (trace_id r.Protocol.text) Recorder.find_trace with
        | Some rc -> (rc.Recorder.latency_ms, rc.Recorder.ts_ms /. 1000.)
        | None -> (Float.nan, Float.nan)
      in
      {
        Net_server.body =
          r.Protocol.text
          ^ Printf.sprintf "%st0=%.6f t1=%.6f service_ms=%.6f service_end=%.6f\n"
              trailer_prefix t0 t1 service_ms service_end;
        close = r.Protocol.close;
      }
    end

(* [init] installs recovered state before the first connection is
   accepted, as the server binary does at boot. *)
let start ?store ?(init = ignore) () =
  let shared = Protocol.create_shared ?store () in
  init shared;
  let traced = Atomic.make false in
  let net =
    Net_server.create ~workers ~queue_capacity ~extra_lines:Protocol.extra_lines
      ~handler:(handler shared ~traced) ()
  in
  let poller = Domain.spawn (fun () -> Net_server.run net) in
  { shared; traced; net; poller; port = Net_server.port net }

let stop s =
  Net_server.stop s.net;
  Domain.join s.poller

(* ------------------------------------------------------------------ *)
(* Connections and reply framing: a reply is the handler's text followed
   by a line holding a single ".", and no vplan reply line is a lone
   dot. *)

type conn = {
  id : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable replies : string list;  (** complete replies, newest first *)
  mutable mode : Service.cost_mode;  (** this session's [set cost-mode] *)
}

let connect ~port id =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { id; fd; buf = Buffer.create 65536; replies = []; mode = Service.Exact }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c lines =
  let data = Bytes.of_string (String.concat "" (List.map (fun l -> l ^ "\n") lines)) in
  let n = Bytes.length data in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write c.fd data !off (n - !off)
  done

(* Index of the newline that starts a "\n.\n" terminator, from [i]. *)
let rec find_terminator s n i =
  match String.index_from_opt s i '\n' with
  | Some j when j + 2 < n ->
      if s.[j + 1] = '.' && s.[j + 2] = '\n' then Some j else find_terminator s n (j + 1)
  | _ -> None

(* Move every complete reply out of the buffer. *)
let extract c =
  let s = Buffer.contents c.buf in
  let n = String.length s in
  let rec go start =
    if start + 1 < n && s.[start] = '.' && s.[start + 1] = '\n' then begin
      c.replies <- "" :: c.replies;
      go (start + 2)
    end
    else
      match find_terminator s n start with
      | None -> start
      | Some j ->
          c.replies <- String.sub s start (j + 1 - start) :: c.replies;
          go (j + 3)
  in
  let consumed = go 0 in
  if consumed > 0 then begin
    Buffer.clear c.buf;
    Buffer.add_substring c.buf s consumed (n - consumed)
  end

let chunk = Bytes.create 65536

(* [false] when the peer closed the connection. *)
let pump c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | k ->
      Buffer.add_subbytes c.buf chunk 0 k;
      extract c;
      true

(* A blocking request for the control phases: send, wait up to two
   minutes for the reply. *)
let ask c line =
  send c [ line ];
  let deadline = Util.now () +. 120. in
  while c.replies = [] do
    let left = deadline -. Util.now () in
    if left <= 0. then failwith ("perfbench: no reply to " ^ line);
    match Unix.select [ c.fd ] [] [] left with
    | [], _, _ -> ()
    | _ -> if not (pump c) then failwith ("perfbench: connection closed on " ^ line)
  done;
  let r = List.hd c.replies in
  c.replies <- [];
  r

let first_line text =
  match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text

(* ------------------------------------------------------------------ *)
(* The closed loop. *)

type handler_times = {
  h_start : float;
  h_end : float;
  service_ms : float;  (** [nan] when the reply carries no trace id *)
  service_end : float;
}

type sample = {
  req : Inputs.request;
  conn_id : int;
  seq : int;  (** completion order *)
  t_send : float;
  t_done : float;
  head : string;  (** first line of the measured reply *)
  bytes : int;  (** reply size on the wire, trailer excluded *)
  full : string option;  (** whole reply, for requests marked [check] *)
  times : handler_times option;  (** traced runs only *)
}

let latency_ms s = (s.t_done -. s.t_send) *. 1000.

let mode_line = function
  | Service.Exact -> "set cost-mode exact"
  | Service.Estimated -> "set cost-mode estimated"

let wants_mode (r : Inputs.request) =
  match r.Inputs.kind with
  | Inputs.Plan_exact | Inputs.Analyze -> Some Service.Exact
  | Inputs.Plan_estimated -> Some Service.Estimated
  | _ -> None

let split_trailer text =
  let body =
    if String.ends_with ~suffix:"\n" text then String.sub text 0 (String.length text - 1)
    else text
  in
  let start = match String.rindex_opt body '\n' with Some i -> i + 1 | None -> 0 in
  let last = String.sub body start (String.length body - start) in
  if not (String.starts_with ~prefix:trailer_prefix last) then (text, None)
  else
    let f k = Option.value ~default:Float.nan (Util.float_field last k) in
    ( String.sub text 0 start,
      Some
        {
          h_start = f "t0";
          h_end = f "t1";
          service_ms = f "service_ms";
          service_end = f "service_end";
        } )

(* [run ~conns ~seconds ~next ()] keeps one request in flight on every
   connection until [seconds] have passed (or [limit] requests were
   sent), then waits for the requests still in flight.  A request whose
   kind needs another session cost mode is preceded by a pipelined [set
   cost-mode] line on the same write; its latency then includes that
   microsecond-scale command.
   Returns the samples in completion order and the elapsed seconds from
   the first send to the last reply. *)
let run ?(limit = max_int) ~conns ~seconds ~next () =
  let n = Array.length conns in
  let inflight = Array.make n None in
  let samples = ref [] and count = ref 0 and issued = ref 0 in
  let t_start = Util.now () in
  let deadline = t_start +. seconds in
  let issue i =
    let c = conns.(i) in
    let req : Inputs.request = next c.id in
    let lines =
      match wants_mode req with
      | Some m when m <> c.mode ->
          c.mode <- m;
          [ mode_line m; req.Inputs.line ]
      | _ -> [ req.Inputs.line ]
    in
    let t = Util.now () in
    send c lines;
    incr issued;
    inflight.(i) <- Some (req, t, List.length lines)
  in
  Array.iteri (fun i _ -> issue i) conns;
  let t_last = ref t_start in
  let hard_stop = deadline +. 120. in
  while Array.exists Option.is_some inflight do
    let now = Util.now () in
    if now > hard_stop then failwith "perfbench: requests still in flight 120 s after the run";
    let fds =
      List.filteri (fun i _ -> inflight.(i) <> None) (Array.to_list (Array.map (fun c -> c.fd) conns))
    in
    let ready, _, _ = Unix.select fds [] [] (Float.min 60. (hard_stop -. now)) in
    Array.iteri
      (fun i c ->
        match inflight.(i) with
        | Some (req, t_send, expected) when List.mem c.fd ready ->
            if not (pump c) then failwith "perfbench: server closed a connection";
            if List.length c.replies >= expected then begin
              let t_done = Util.now () in
              t_last := t_done;
              let last = List.hd c.replies in
              c.replies <- [];
              let text, times = split_trailer last in
              incr count;
              samples :=
                {
                  req;
                  conn_id = c.id;
                  seq = !count;
                  t_send;
                  t_done;
                  head = first_line text;
                  bytes = String.length text;
                  full = (if req.Inputs.check then Some text else None);
                  times;
                }
                :: !samples;
              inflight.(i) <- None;
              if t_done < deadline && !issued < limit then issue i
            end
        | _ -> ())
      conns
  done;
  (List.rev !samples, !t_last -. t_start)
