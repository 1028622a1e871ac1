(** Load generation for the TCP serving tier.

    {!run} drives N concurrent client connections from a single domain
    with a [select] event loop, so hundreds of clients cost hundreds of
    sockets, not hundreds of domains.  The loop is closed: each
    connection keeps exactly one request in flight, so measured
    throughput is [clients / latency].

    Responses are framed by the server's lone-["."] terminator line and
    classified by their first line: [ok ...], [err busy] (shed by
    admission control), or any other [err ...]. *)

type result = {
  clients : int;
  sent : int;  (** requests written *)
  completed : int;  (** responses fully received *)
  ok : int;
  shed : int;  (** [err busy] responses *)
  errors : int;  (** other [err] responses *)
  closed_early : int;  (** connections that died before the run ended *)
  elapsed_ms : float;
  qps : float;  (** [ok] responses per second of elapsed wall time *)
}

(** [run ~port ~clients ~duration_ms ~request ()] — [request ~client
    ~seq] renders the request line for connection [client]'s [seq]-th
    send (without the newline; it must be a single-line command).  After
    [duration_ms] no new requests are sent; up to [grace_ms] (default
    2000) is then allowed for stragglers. *)
val run :
  ?host:string ->
  port:int ->
  clients:int ->
  ?grace_ms:float ->
  duration_ms:float ->
  request:(client:int -> seq:int -> string) ->
  unit ->
  result

(** A plain blocking client for scripting one connection: control
    requests during a bench, assertions in tests. *)
module Client : sig
  type t

  val connect : ?host:string -> port:int -> unit -> t

  (** [request t line] sends [line] (or several lines, for [batch])
      and returns the response lines, terminator excluded.
      @raise Failure on timeout (10s), closed connection, or if the
      connection already saw EOF. *)
  val request : t -> string -> string list

  (** [send t line] writes without awaiting a response (for pipelining
      experiments); pair with {!drain}. *)
  val send : t -> string -> unit

  (** [drain t n] reads [n] responses, returning each one's lines. *)
  val drain : t -> int -> string list list

  val close : t -> unit
end
