(** Single-consumer message queue connecting the network to a client fiber.

    Deliveries {!push} messages; the owning fiber blocks on {!recv} (pure
    asynchrony) or {!recv_until} (the synchronous-links model of Section 3.3
    of the paper, where the client waits for a round trip or a timeout).
    At most one fiber may wait on a mailbox at a time. *)

type 'm t

val create : unit -> 'm t

val push : 'm t -> 'm -> unit
(** Enqueue a message, waking the waiting fiber if there is one. *)

val recv : 'm t -> 'm
(** Block the calling fiber until a message is available, then dequeue it. *)

val recv_until : engine:Engine.t -> deadline:Vtime.t -> 'm t -> 'm option
(** Like {!recv} but gives up at [deadline], returning [None].  A message
    arriving strictly after the deadline event fires is left queued. *)

val drain : 'm t -> 'm list
(** Take everything currently queued, without blocking. *)

val to_list : 'm t -> 'm list
(** Everything currently queued, oldest first, without dequeuing — for
    state fingerprinting by the model checker. *)

val length : 'm t -> int
