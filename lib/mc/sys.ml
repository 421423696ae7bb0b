open Registers

type move =
  | Deliver of string
  | Tick of int
  | Corrupt of int

let move_to_string = function
  | Deliver label -> "deliver " ^ label
  | Tick i -> Printf.sprintf "tick %d" i
  | Corrupt i -> Printf.sprintf "corrupt %d" i

let move_equal (a : move) b = a = b

let compare_move (a : move) b = compare a b

(* "link:c100->s3" -> ("c100", "s3"); anything unparsable gets no
   endpoints, which makes it dependent with everything (safe). *)
let endpoints label =
  match String.index_opt label ':' with
  | None -> None
  | Some i -> (
    let name = String.sub label (i + 1) (String.length label - i - 1) in
    match String.index_opt name '-' with
    | Some j
      when j + 1 < String.length name
           && Char.equal name.[j + 1] '>' ->
      let src = String.sub name 0 j in
      let dst = String.sub name (j + 2) (String.length name - j - 2) in
      Some (src, dst)
    | Some _ | None -> None)

(* Two moves are independent when they commute from every state: firing
   them in either order yields the same global state.  Deliveries on links
   with disjoint endpoint sets touch disjoint process/link state, so they
   commute; anything sharing an endpoint (same server's automaton, same
   client's mailbox/fiber) — and every corruption — is treated as
   dependent.  This conservative relation is what the sleep-set reduction
   is sound for; [--cross-check] re-runs without it. *)
let independent a b =
  match (a, b) with
  | Deliver la, Deliver lb -> (
    match (endpoints la, endpoints lb) with
    | Some (sa, da), Some (sb, db) ->
      (not (String.equal sa sb))
      && (not (String.equal sa db))
      && (not (String.equal da sb))
      && not (String.equal da db)
    | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* State fingerprint                                                  *)

(* Both state representations below render into these helpers, built on
   Buffer primitives alone: committed counterexamples record digests, so
   the bytes must never change, and Printf/Format dominated the cost. *)

(* [string_of_int] formats through C's printf; the ids, rounds and ranks
   rendered here are small, so they come from a table. *)
let small_ints = Array.init 1024 string_of_int

let add_int b i =
  Buffer.add_string b
    (if i >= 0 && i < Array.length small_ints then small_ints.(i)
     else string_of_int i)

(* [Value.to_string] goes through Format; the regular and atomic families
   only hold [Bot] and [Int] values, rendered here byte-identically. *)
let add_value b = function
  | Value.Bot -> Buffer.add_string b "⊥"
  | Value.Int i -> add_int b i
  | (Value.Str _ | Value.Stamped _) as v ->
    Buffer.add_string b (Value.to_string v)

let add_cell b (c : Messages.cell) =
  add_int b c.sn;
  Buffer.add_char b ':';
  add_value b c.v

let add_help b = function
  | None -> Buffer.add_char b '-'
  | Some c -> add_cell b c

let add_to_server b (env : Messages.server_envelope) =
  add_int b env.round;
  Buffer.add_char b '/';
  add_int b env.client;
  Buffer.add_char b '/';
  add_int b env.inst;
  Buffer.add_char b '/';
  match env.body with
  | Messages.Write c ->
    Buffer.add_char b 'W';
    add_cell b c
  | Messages.New_help c ->
    Buffer.add_char b 'H';
    add_cell b c
  | Messages.Read nr -> Buffer.add_string b (if nr then "Rn" else "Ro")

(* [server] is the id to print for the envelope's origin (the fingerprint
   renames or elides it). *)
let add_to_client b ~server (env : Messages.client_envelope) =
  add_int b env.round;
  Buffer.add_char b '/';
  add_int b server;
  Buffer.add_char b '/';
  match env.body with
  | Messages.Ack_write h ->
    Buffer.add_char b 'a';
    add_help b h
  | Messages.Ack_read (c, h) ->
    Buffer.add_char b 'A';
    add_cell b c;
    Buffer.add_char b ',';
    add_help b h

let add_epoch b (e : Epoch.t) =
  add_int b e.s;
  Buffer.add_char b '{';
  List.iter (fun x -> add_int b x; Buffer.add_char b ' ') e.a;
  Buffer.add_char b '}'

let add_ts b = function
  | None -> Buffer.add_char b '-'
  | Some (e, s, j) ->
    add_epoch b e;
    Buffer.add_char b '/';
    add_int b s;
    Buffer.add_char b '/';
    add_int b j

(* The head of a server block: the automaton instances, or the Byzantine
   behavior marker (the assignment is config-constant, but two Byzantine
   slots with different behaviors must not be interchangeable). *)
let add_byz b = function
  | Config.Silent -> Buffer.add_string b "Bs"
  | Config.Collude { sn; v } ->
    Buffer.add_string b "Bc";
    add_int b sn;
    Buffer.add_char b ':';
    add_int b v

let add_instance b inst (i : Server.instance) =
  add_int b inst;
  Buffer.add_char b '=';
  add_cell b i.last_val;
  Buffer.add_char b '+';
  add_help b i.helping;
  Buffer.add_char b ','

(* The rest of a server block, once per client port in id order: the
   in-flight payloads on the port's link to the server, then on its link
   back.  The server field of an ack on the server's own reply link is
   self-referential, so it is elided. *)
let add_port_open b id =
  Buffer.add_string b "|c";
  add_int b id;
  Buffer.add_char b '>'

let add_up b env =
  add_to_server b env;
  Buffer.add_char b ';'

let add_down b env =
  add_to_client b ~server:0 env;
  Buffer.add_char b ';'

(* The oracles only compare instants for order, so the fingerprint keeps
   the order type of the recorded instants rather than their absolute
   values: order-isomorphic pasts merge, which is what lets permuted
   interleavings converge on one canonical state. *)
let add_history b (ops : Oracles.History.op list) corrupt_times =
  let times =
    List.concat_map
      (fun (o : Oracles.History.op) ->
        [ Sim.Vtime.to_int o.inv; Sim.Vtime.to_int o.resp ])
      ops
    @ corrupt_times
  in
  let distinct = List.sort_uniq Int.compare times in
  let rank v =
    let rec go i = function
      | [] -> i
      | x :: rest -> if x = v then i else go (i + 1) rest
    in
    go 0 distinct
  in
  List.iter
    (fun (o : Oracles.History.op) ->
      Buffer.add_string b o.proc;
      Buffer.add_char b '|';
      Buffer.add_char b
        (match o.kind with
        | Oracles.History.Write -> 'W'
        | Oracles.History.Read -> 'R');
      Buffer.add_char b '|';
      add_int b (rank (Sim.Vtime.to_int o.inv));
      Buffer.add_char b '|';
      add_int b (rank (Sim.Vtime.to_int o.resp));
      Buffer.add_char b '|';
      add_value b o.value;
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_bool o.ok);
      Buffer.add_char b '|';
      add_ts b o.ts;
      Buffer.add_char b ';')
    ops;
  Buffer.add_string b "X:";
  List.iter
    (fun ct -> add_int b (rank ct); Buffer.add_char b ' ')
    (List.sort Int.compare corrupt_times)

(* One client port as the fingerprint sees it. *)
type port_view = {
  id : int;
  round : int;
  mailbox : Messages.client_envelope list;  (** oldest first *)
}

(* Symmetry reduction: the protocols never branch on a server's identity
   (uniform broadcast, uniform links) and the oracles only read the
   client-side history, so permuting server slots yields an isomorphic
   state with the same verdicts.  Only slots named by a corruption-menu
   item must keep their identity (a pending [Corrupt_server {server=2}]
   distinguishes slot 2).  The digest renders the state in canonical
   coordinates — named slots first in id order, then the anonymous slots
   sorted by their serialized block — and returns the renaming so the
   checker can put sleep sets into the same coordinates (comparing sleep
   sets across symmetry-merged states is only sound canonically).

   [blocks.(s)] is everything attached to server slot [s], rendered
   without its id (see [add_byz], [add_instance], [add_port_open]): two
   servers with equal blocks are observationally interchangeable. *)
let canonical_digest ~(cfg : Config.t) ~blocks ~ports ~client_state ~applied
    ~fibers ~ops ~corrupt_times =
  let n = Array.length blocks in
  let named =
    List.filter_map
      (function
        | Config.Corrupt_server { server; _ } | Config.Crash_recover { server }
          ->
          Some server
        | _ -> None)
      cfg.menu
    |> List.sort_uniq Int.compare
  in
  (* The only mailbox consumer is [Collect.acks], which files responses
     into a per-server slots array — so the arrival ORDER of queued acks
     is semantically inert and the mailbox can be treated as a multiset.
     The one exception: an envelope whose round tag has gone stale is
     normally dead forever, but a pending [Corrupt_round] item could
     resurrect it, and whether a stale envelope was consumed-and-dropped
     or still queued does depend on order.  So order is only erased when
     the menu carries no round corruption. *)
  let mailbox_ordered =
    List.exists
      (function Config.Corrupt_round _ -> true | _ -> false)
      cfg.menu
  in
  let scratch = Buffer.create 64 in
  let render_env server env =
    Buffer.clear scratch;
    add_to_client scratch ~server env;
    Buffer.contents scratch
  in
  (* A server id also escapes into client mailboxes (ack envelopes name
     their origin).  The references to a server — rendered without ids —
     are permutation-invariant, so refining the sort key with them makes
     the canonical form complete: two states that differ only by a
     permutation of anonymous servers always render identically, and
     servers left tied (equal block, equal references) are true
     automorphisms, so the id tie-break is harmless. *)
  let refkeys = Array.make n "" in
  List.iteri
    (fun ci p ->
      let refs = Array.make n [] in
      List.iteri
        (fun pos (env : Messages.client_envelope) ->
          let s = env.server in
          if s >= 0 && s < n then
            refs.(s) <-
              (if mailbox_ordered then "@" ^ string_of_int pos
               else render_env 0 env)
              :: refs.(s))
        p.mailbox;
      Array.iteri
        (fun s occurrences ->
          if occurrences <> [] then
            refkeys.(s) <-
              String.concat ""
                [
                  refkeys.(s);
                  string_of_int ci;
                  "[";
                  String.concat "," (List.sort String.compare occurrences);
                  "];";
                ])
        refs)
    ports;
  let anonymous =
    List.filter
      (fun s -> not (List.mem s named))
      (List.init n Fun.id)
    |> List.sort (fun a b ->
           match String.compare blocks.(a) blocks.(b) with
           | 0 -> (
             match String.compare refkeys.(a) refkeys.(b) with
             | 0 -> Int.compare a b
             | c -> c)
           | c -> c)
  in
  let order = Array.of_list (named @ anonymous) in
  let canon = Array.make n 0 in
  Array.iteri (fun pos s -> canon.(s) <- pos) order;
  let ren s = if s >= 0 && s < n then canon.(s) else s in
  (* Servers still tied after the (block, refkey) sort are genuinely
     interchangeable — swapping them is a state automorphism.  Map each
     to the least member of its tie group: the explorer only fires
     deliveries at class representatives, since the other successors are
     isomorphic (equal blocks include the link contents, so a
     representative's move is enabled whenever a class member's is). *)
  let rep_arr = Array.init n Fun.id in
  (let prev = ref None in
   List.iter
     (fun s ->
       (match !prev with
       | Some p
         when String.equal blocks.(p) blocks.(s)
              && String.equal refkeys.(p) refkeys.(s) ->
         rep_arr.(s) <- rep_arr.(p)
       | _ -> ());
       prev := Some s)
     anonymous);
  let rep s = if s >= 0 && s < n then rep_arr.(s) else s in
  let b = Buffer.create 1024 in
  (* servers in canonical order *)
  Array.iteri
    (fun pos s ->
      Buffer.add_char b 's';
      add_int b pos;
      Buffer.add_char b ':';
      Buffer.add_string b blocks.(s);
      Buffer.add_char b '\n')
    order;
  (* client ports: round tag and queued acks (ack origins renamed, and
     the queue rendered as a sorted multiset unless a round corruption
     could make order matter); link traffic lives inside the server
     blocks *)
  List.iter
    (fun p ->
      Buffer.add_char b 'c';
      add_int b p.id;
      Buffer.add_string b " r";
      add_int b p.round;
      Buffer.add_string b " q[";
      let rendered =
        List.map
          (fun (env : Messages.client_envelope) ->
            render_env (ren env.server) env)
          p.mailbox
      in
      let rendered =
        if mailbox_ordered then rendered
        else List.sort String.compare rendered
      in
      List.iter
        (fun s ->
          Buffer.add_string b s;
          Buffer.add_char b ';')
        rendered;
      Buffer.add_string b "]\n")
    ports;
  (* client persistent state *)
  client_state b;
  (* which corruption choices are still available *)
  Buffer.add_string b "\nM:";
  List.iter
    (fun i -> add_int b i; Buffer.add_char b ' ')
    (List.sort Int.compare applied);
  (* client progress: r(unning), d(one) or f(ailed) *)
  List.iter
    (fun (name, status) ->
      Buffer.add_string b name;
      Buffer.add_char b status)
    fibers;
  Buffer.add_char b '\n';
  add_history b ops corrupt_times;
  (Digest.string (Buffer.contents b), ren, rep)

(* ------------------------------------------------------------------ *)
(* Fiber-backed deployment                                            *)

(* The protocol code itself, run over Registers.Net with every engine
   event held back for the explorer.  Client fibers are one-shot
   continuations, so such a state cannot be copied: the checker rebuilds
   siblings by replaying the move prefix.  This is the only path for the
   atomic and MWMR families, and the reference the regular family's data
   state is tested against. *)
module Fibers = struct
  type clients =
    | Regular_c of Swsr_regular.writer * Swsr_regular.reader
    | Atomic_c of Swsr_atomic.writer * Swsr_atomic.reader
    | Mwmr_c of Mwmr.process array

  type t = {
    cfg : Config.t;
    engine : Sim.Engine.t;
    net : Net.t;
    adv : Byzantine.Adversary.t;
    history : Oracles.History.t;
    clients : clients;
    fibers : (string * Sim.Fiber.handle) list;
    mutable applied : int list; (* menu indices fired so far, newest first *)
    mutable corrupt_times : Sim.Vtime.t list; (* newest first *)
  }

  let behavior_of = function
    | Config.Silent -> Byzantine.Behavior.silent
    | Config.Collude { sn; v } ->
      Byzantine.Behavior.collude ~cell:{ Messages.sn; v = Value.int v }

  let mwmr_m = 2

  let create (cfg : Config.t) =
    let rng = Sim.Rng.create 42 in
    let engine = Sim.Engine.create ~rng () in
    let params =
      Params.create_unchecked ~n:cfg.n ~f:cfg.f ~mode:Params.Async ()
    in
    (* Fixed unit delay: the explorer owns all ordering nondeterminism, so
       sampled delays would only smear states apart without adding
       behaviors. *)
    let net =
      Net.create ~engine ~params ~link_delay:(fun _ -> Sim.Link.fixed 1) ()
    in
    let adv = Byzantine.Adversary.deploy ~net ~rng:(Sim.Rng.split rng) in
    List.iter
      (fun (slot, k) ->
        Byzantine.Adversary.compromise adv slot (behavior_of k))
      cfg.byz;
    let history = Oracles.History.create () in
    let record ~proc ~kind f =
      let inv = Sim.Engine.now engine in
      let v, ok, ts = f () in
      let resp = Sim.Engine.now engine in
      Oracles.History.record history ~proc ~kind ~inv ~resp ?ts ~ok v
    in
    let clients, jobs =
      match cfg.family with
      | Config.Regular ->
        let w = Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
        let r = Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
        ( Regular_c (w, r),
          [
            ( "writer",
              fun () ->
                for k = 1 to cfg.writes do
                  record ~proc:"writer" ~kind:Oracles.History.Write
                    (fun () ->
                      let v = Value.int k in
                      Swsr_regular.write w v;
                      (v, true, None))
                done );
            ( "reader",
              fun () ->
                for _ = 1 to cfg.reads do
                  record ~proc:"reader" ~kind:Oracles.History.Read (fun () ->
                      match
                        Swsr_regular.read ~max_iterations:cfg.read_budget r
                      with
                      | Some v -> (v, true, None)
                      | None -> (Value.bot, false, None))
                done );
          ] )
      | Config.Atomic ->
        let w = Swsr_atomic.writer ~net ~client_id:100 ~inst:0 () in
        let r = Swsr_atomic.reader ~net ~client_id:101 ~inst:0 () in
        ( Atomic_c (w, r),
          [
            ( "writer",
              fun () ->
                for k = 1 to cfg.writes do
                  record ~proc:"writer" ~kind:Oracles.History.Write
                    (fun () ->
                      let v = Value.int k in
                      Swsr_atomic.write w v;
                      (v, true, None))
                done );
            ( "reader",
              fun () ->
                for _ = 1 to cfg.reads do
                  record ~proc:"reader" ~kind:Oracles.History.Read (fun () ->
                      match
                        Swsr_atomic.read ~max_iterations:cfg.read_budget r
                      with
                      | Some v -> (v, true, None)
                      | None -> (Value.bot, false, None))
                done );
          ] )
      | Config.Mwmr ->
        let mcfg = Mwmr.default_config ~m:mwmr_m in
        let procs =
          Array.init mwmr_m (fun i ->
              Mwmr.process ~net ~cfg:mcfg ~id:i ~client_id:(300 + i))
        in
        let job i p =
          let proc = Printf.sprintf "p%d" i in
          fun () ->
            for k = 1 to cfg.writes do
              let v = Value.int ((1000 * (i + 1)) + k) in
              let inv = Sim.Engine.now engine in
              Mwmr.write p v;
              let resp = Sim.Engine.now engine in
              let ts =
                match Mwmr.last_write_timestamp p with
                | Some (e, s) -> Some (e, s, i)
                | None -> None
              in
              Oracles.History.record history ~proc
                ~kind:Oracles.History.Write ~inv ~resp ?ts v
            done;
            for _ = 1 to cfg.reads do
              let inv = Sim.Engine.now engine in
              let result =
                Mwmr.read_timestamped ~max_iterations:cfg.read_budget p
              in
              let resp = Sim.Engine.now engine in
              (* Epoch-crossing reads perform the line-11 internal write;
                 the checker must see it as a write. *)
              List.iter
                (fun (v, e, s) ->
                  Oracles.History.record history ~proc
                    ~kind:Oracles.History.Write ~inv ~resp ~ts:(e, s, i) v)
                (Mwmr.take_restamps p);
              match result with
              | Some (v, e, s, j) ->
                Oracles.History.record history ~proc
                  ~kind:Oracles.History.Read ~inv ~resp ~ts:(e, s, j) v
              | None ->
                Oracles.History.record history ~proc
                  ~kind:Oracles.History.Read ~inv ~resp ~ok:false Value.bot
            done
        in
        ( Mwmr_c procs,
          Array.to_list
            (Array.mapi (fun i p -> (Printf.sprintf "p%d" i, job i p)) procs)
        )
    in
    let fibers =
      List.map (fun (name, f) -> (name, Sim.Fiber.spawn ~name f)) jobs
    in
    {
      cfg;
      engine;
      net;
      adv;
      history;
      clients;
      fibers;
      applied = [];
      corrupt_times = [];
    }

  let client_active t =
    List.exists
      (fun (_, h) ->
        match Sim.Fiber.status h with
        | Sim.Fiber.Running -> true
        | Sim.Fiber.Done | Sim.Fiber.Failed _ -> false)
      t.fibers

  let stuck t =
    List.filter_map
      (fun (name, h) ->
        match Sim.Fiber.status h with
        | Sim.Fiber.Done -> None
        | Sim.Fiber.Running -> Some name
        | Sim.Fiber.Failed e ->
          Some (name ^ " (raised: " ^ Printexc.to_string e ^ ")"))
      t.fibers

  let enabled t =
    let ready = Sim.Engine.ready t.engine in
    let seen = Hashtbl.create 16 in
    let delivers =
      List.filter_map
        (fun (r : Sim.Engine.ready_event) ->
          if String.equal r.r_label "" then None
          else if Hashtbl.mem seen r.r_label then None
          else begin
            Hashtbl.add seen r.r_label ();
            Some (Deliver r.r_label)
          end)
        ready
      |> List.sort compare_move
    in
    let ticks =
      List.filter
        (fun (r : Sim.Engine.ready_event) -> String.equal r.r_label "")
        ready
      |> List.mapi (fun i _ -> Tick i)
    in
    let corrupts =
      if t.cfg.menu = [] || not (client_active t) then []
      else
        List.mapi (fun i _ -> i) t.cfg.menu
        |> List.filter (fun i -> not (List.mem i t.applied))
        |> List.map (fun i -> Corrupt i)
    in
    delivers @ ticks @ corrupts

  let apply_corruption t = function
    | Config.Corrupt_server { server; sn; v } ->
      let srv = Byzantine.Adversary.server t.adv server in
      let insts =
        match Server.instances srv with
        | [] -> [ (0, Server.instance srv 0) ]
        | l -> l
      in
      let cell = { Messages.sn; v = Value.int v } in
      List.iter
        (fun ((_, i) : int * Server.instance) ->
          i.last_val <- cell;
          i.helping <- Some cell)
        insts
    | Config.Corrupt_reader { pwsn; v } -> (
      match t.clients with
      | Atomic_c (_, r) ->
        Swsr_atomic.corrupt_reader_to r ~pwsn ~pv:(Value.int v)
      | Regular_c _ | Mwmr_c _ -> ())
    | Config.Corrupt_writer_sn sn -> (
      match t.clients with
      | Atomic_c (w, _) -> Swsr_atomic.set_wsn w sn
      | Regular_c _ | Mwmr_c _ -> ())
    | Config.Corrupt_round { client; round } -> (
      match List.assoc_opt client (Net.client_ports t.net) with
      | Some port -> port.Net.round <- abs round mod Net.round_modulus
      | None -> ())
    | Config.Crash_recover { server } ->
      (* Crash plus recovery with lost volatile state, collapsed into one
         model step: the automaton keeps running (deliveries during the
         down window are a scheduling choice the explorer already owns)
         but its state reverts to pristine bot content. *)
      let srv = Byzantine.Adversary.server t.adv server in
      (match Server.instances srv with
      | [] -> ignore (Server.instance srv 0)
      | _ :: _ -> ());
      Server.reset srv

  (* Every explored step advances the clock by one tick before firing, so
     execution order and virtual-time order coincide: the history the
     oracles see has strictly increasing instants along the explored
     interleaving, exactly as if a wall clock had witnessed it. *)
  let bump t =
    Sim.Engine.advance_to t.engine
      (Sim.Vtime.add (Sim.Engine.now t.engine) 1)

  let fire t (r : Sim.Engine.ready_event) =
    bump t;
    ignore (Sim.Engine.fire t.engine ~seq:r.r_seq);
    Ok ()

  let apply t = function
    | Deliver label -> (
      (* [ready] is (time, seq)-sorted, so the first match is the
         per-link FIFO head — the only delivery the paper's model admits
         next on this channel. *)
      match
        List.find_opt
          (fun (r : Sim.Engine.ready_event) -> String.equal r.r_label label)
          (Sim.Engine.ready t.engine)
      with
      | None -> Error "no pending delivery on that link"
      | Some r -> fire t r)
    | Tick i -> (
      let unlabeled =
        List.filter
          (fun (r : Sim.Engine.ready_event) -> String.equal r.r_label "")
          (Sim.Engine.ready t.engine)
      in
      match if i < 0 then None else List.nth_opt unlabeled i with
      | None -> Error "no such unlabeled event"
      | Some r -> fire t r)
    | Corrupt i -> (
      if List.mem i t.applied then Error "menu item already fired"
      else
        match if i < 0 then None else List.nth_opt t.cfg.menu i with
        | None -> Error "no such menu item"
        | Some c ->
          bump t;
          t.applied <- i :: t.applied;
          t.corrupt_times <- Sim.Engine.now t.engine :: t.corrupt_times;
          apply_corruption t c;
          Ok ())

  let server_block t b srv =
    let s = Server.id srv in
    (match List.assoc_opt s t.cfg.byz with
    | Some k -> add_byz b k
    | None ->
      List.iter
        (fun (inst, i) -> add_instance b inst i)
        (Server.instances srv));
    List.iter
      (fun ((id, port) : int * Net.client_port) ->
        add_port_open b id;
        List.iter (add_up b) (Sim.Link.in_flight port.Net.to_servers.(s));
        Buffer.add_char b '<';
        List.iter (add_down b) (Sim.Link.in_flight port.Net.from_servers.(s)))
      (Net.client_ports t.net)

  let add_clients t b =
    match t.clients with
    | Regular_c _ -> Buffer.add_string b "reg"
    | Atomic_c (w, r) ->
      Buffer.add_string b "wsn=";
      add_int b (Swsr_atomic.wsn w);
      Buffer.add_string b ";pwsn=";
      add_int b (Swsr_atomic.pwsn r);
      Buffer.add_string b ";pv=";
      add_value b (Swsr_atomic.pv r)
    | Mwmr_c procs ->
      Array.iter
        (fun p ->
          Buffer.add_char b 'p';
          add_int b (Mwmr.id p);
          Buffer.add_char b ':';
          (match Mwmr.last_write_timestamp p with
          | None -> Buffer.add_char b '-'
          | Some (e, s) ->
            add_epoch b e;
            Buffer.add_char b '/';
            add_int b s);
          Buffer.add_string b ";eo=";
          add_int b (Mwmr.epochs_opened p);
          Buffer.add_char b ';';
          List.iter
            (fun (v, e, s) ->
              add_value b v;
              Buffer.add_char b '@';
              add_epoch b e;
              Buffer.add_char b '/';
              add_int b s;
              Buffer.add_char b ',')
            (Mwmr.restamps p);
          Array.iter
            (fun w ->
              Buffer.add_char b 'w';
              add_int b (Swsr_atomic.wsn w);
              Buffer.add_char b ',')
            (Swmr.copies (Mwmr.own p));
          Array.iter
            (fun rd ->
              let sr = Swmr.sr_reader rd in
              Buffer.add_char b 'r';
              add_int b (Swsr_atomic.pwsn sr);
              Buffer.add_char b ':';
              add_value b (Swsr_atomic.pv sr);
              Buffer.add_char b ',')
            (Mwmr.views p);
          Buffer.add_char b '\n')
        procs

  let fingerprint t =
    let block = Buffer.create 256 in
    let blocks =
      Array.map
        (fun srv ->
          Buffer.clear block;
          server_block t block srv;
          Buffer.contents block)
        (Byzantine.Adversary.servers t.adv)
    in
    canonical_digest ~cfg:t.cfg ~blocks
      ~ports:
        (List.map
           (fun ((id, port) : int * Net.client_port) ->
             {
               id;
               round = port.Net.round;
               mailbox = Sim.Mailbox.to_list port.Net.mailbox;
             })
           (Net.client_ports t.net))
      ~client_state:(add_clients t) ~applied:t.applied
      ~fibers:
        (List.map
           (fun (name, h) ->
             ( name,
               match Sim.Fiber.status h with
               | Sim.Fiber.Running -> 'r'
               | Sim.Fiber.Done -> 'd'
               | Sim.Fiber.Failed _ -> 'f' ))
           t.fibers)
      ~ops:(Oracles.History.ops t.history)
      ~corrupt_times:(List.map Sim.Vtime.to_int t.corrupt_times)
end

(* ------------------------------------------------------------------ *)
(* The regular family as data                                         *)

(* The same execution as [Fibers] on the regular family, held as plain data
   so that a state can be copied: server instances, per-link FIFO queues,
   port round tags, mailboxes, and the two clients as explicit step
   automata.  Servers run [Server.respond], the Byzantine behaviors and
   thresholds are the library's own; what is restated here is only the
   client control flow of [Swsr_regular.write]/[read] and of
   [Net.ss_broadcast]: resume at the min(n - 2t, #correct)-th correct
   delivery slot, then gather n - t acks of the broadcast's round from the
   mailbox.  Everything is rendered through the same [canonical_digest],
   so both representations of a state have the same fingerprint. *)
module Data = struct
  (* What a client is blocked on. *)
  type wait =
    | Bcast of { serial : int; round : int; confirmed : int }
        (** inside ss-broadcast number [serial] (round tag [round]), with
            [confirmed] correct delivery slots counted so far *)
    | Acks of {
        round : int;
        slots : Messages.to_client option array;  (** per server *)
        filled : int;
      }  (** collecting acks of [round] from the mailbox *)
    | Finished

  type client = {
    op : int;  (** 1-based index of the running operation *)
    inv : int;  (** its invocation instant *)
    stage : int;
        (** writer: 0 in the WRITE round, 1 in the NEW_HELP round; reader:
            inquiry iterations begun in this read *)
    serial : int;  (** ss-broadcasts issued so far *)
    wait : wait;
  }

  let writer = 0

  let reader = 1

  let client_ids = [| 100; 101 |]

  let client_names = [| "writer"; "reader" |]

  (* A link, by direction and [client * n + server]. *)
  type link = Up of int | Down of int

  (* Everything fixed by the configuration, shared by all copies. *)
  type shape = {
    cfg : Config.t;
    params : Params.t;
    n : int;
    byz : Config.byz_kind option array;
    target : int;  (** ss-broadcast resume point *)
    links : (string * link) array;  (** every link, in label order *)
    by_label : (string, link) Hashtbl.t;
  }

  (* Queues hold a handful of envelopes, so plain lists (oldest first)
     serve as FIFOs.  Arrays are copied by [copy]; everything stored in
     them is immutable, including the server instances, which are
     replaced rather than updated. *)
  type t = {
    sh : shape;
    mutable clock : int;
    servers : Server.instance option array;
        (** honest automata, instance 0; [None] until first touched *)
    up : (int * Messages.server_envelope) list array;
        (** client-to-server links: (broadcast serial, envelope) *)
    down : Messages.client_envelope list array;
    mailbox : Messages.client_envelope list array;  (** per client *)
    rounds : int array;  (** per client port *)
    clients : client array;
    mutable ticks : (int * int) list;
        (** pending zero-target resume events: (client, serial), oldest
            first *)
    mutable ops_rev : Oracles.History.op list;
    mutable applied : int list;  (** newest first *)
    mutable corrupt_times : int list;  (** newest first *)
    sent_count : int array;  (** per message class *)
    sent_bytes : int array;
    mutable broadcasts : int;
  }

  let copy t =
    {
      t with
      servers = Array.copy t.servers;
      up = Array.copy t.up;
      down = Array.copy t.down;
      mailbox = Array.copy t.mailbox;
      rounds = Array.copy t.rounds;
      clients = Array.copy t.clients;
      sent_count = Array.copy t.sent_count;
      sent_bytes = Array.copy t.sent_bytes;
    }

  let count_sent t cls ~copies ~bytes =
    let i = Obs.Event.class_index cls in
    t.sent_count.(i) <- t.sent_count.(i) + copies;
    t.sent_bytes.(i) <- t.sent_bytes.(i) + (copies * bytes)

  let set_wait t c wait = t.clients.(c) <- { (t.clients.(c)) with wait }

  (* [Net.ss_broadcast]: bump the port's round tag, put one copy on every
     link to a server, and block until enough correct delivery slots. *)
  let broadcast t c body =
    let n = t.sh.n in
    t.broadcasts <- t.broadcasts + 1;
    let round = (t.rounds.(c) + 1) mod Net.round_modulus in
    t.rounds.(c) <- round;
    let env =
      {
        Messages.round;
        client = client_ids.(c);
        inst = 0;
        body;
        span = Obs.Trace_ctx.none;
      }
    in
    count_sent t
      (Messages.class_of_to_server body)
      ~copies:n
      ~bytes:(Messages.server_envelope_bytes env);
    let cl = t.clients.(c) in
    let serial = cl.serial + 1 in
    for s = 0 to n - 1 do
      let i = (c * n) + s in
      t.up.(i) <- t.up.(i) @ [ (serial, env) ]
    done;
    (* No correct server to wait for: a zero-delay timer resumes the
       client instead. *)
    if t.sh.target = 0 then t.ticks <- t.ticks @ [ (c, serial) ];
    t.clients.(c) <-
      { cl with serial; wait = Bcast { serial; round; confirmed = 0 } }

  (* [Collect.gather]'s filing rule; the writer files only ACK_WRITEs,
     the reader only ACK_READs. *)
  let consider c ~round slots filled (env : Messages.client_envelope) =
    let wanted =
      match env.body with
      | Messages.Ack_write _ -> c = writer
      | Messages.Ack_read _ -> c = reader
    in
    let s = env.server in
    if
      env.round = round && s >= 0
      && s < Array.length slots
      && Option.is_none slots.(s)
      && wanted
    then begin
      slots.(s) <- Some env.body;
      filled + 1
    end
    else filled

  (* The client loops of [Fibers.create] over [Swsr_regular.write]/[read]:
     each function runs the client until its next block. *)
  let rec start t c op =
    let cl = t.clients.(c) in
    let total = if c = writer then t.sh.cfg.writes else t.sh.cfg.reads in
    if op > total then t.clients.(c) <- { cl with op; wait = Finished }
    else begin
      t.clients.(c) <- { cl with op; inv = t.clock; stage = 0 };
      if c = writer then
        broadcast t c
          (Messages.Write { Messages.sn = Seqnum.zero; v = Value.int op })
      else inquire t 1
    end

  and inquire t iteration =
    if iteration > t.sh.cfg.read_budget then
      complete t reader ~value:Value.bot ~ok:false
    else begin
      t.clients.(reader) <- { (t.clients.(reader)) with stage = iteration };
      broadcast t reader (Messages.Read (iteration = 1))
    end

  and complete t c ~value ~ok =
    let cl = t.clients.(c) in
    let op =
      {
        Oracles.History.proc = client_names.(c);
        kind =
          (if c = writer then Oracles.History.Write
           else Oracles.History.Read);
        inv = Sim.Vtime.of_int cl.inv;
        resp = Sim.Vtime.of_int t.clock;
        value;
        ok;
        ts = None;
      }
    in
    t.ops_rev <- op :: t.ops_rev;
    start t c (cl.op + 1)

  (* The ss-broadcast returned. *)
  and resumed t c ~round =
    let cl = t.clients.(c) in
    if c = writer && cl.stage = 1 then
      complete t c ~value:(Value.int cl.op) ~ok:true
    else gather t c ~round (Array.make t.sh.n None) 0

  (* Drain the mailbox into [slots] (owned by this call) until n - t
     servers answered, or block on the empty mailbox. *)
  and gather t c ~round slots filled =
    if filled >= Params.ack_wait t.sh.params then acks_done t c slots
    else
      match t.mailbox.(c) with
      | env :: rest ->
        t.mailbox.(c) <- rest;
        gather t c ~round slots (consider c ~round slots filled env)
      | [] -> set_wait t c (Acks { round; slots; filled })

  and acks_done t c slots =
    let cl = t.clients.(c) in
    let params = t.sh.params in
    let acks = List.filter_map Fun.id (Array.to_list slots) in
    if c = writer then begin
      let helps =
        List.filter_map
          (function
            | Messages.Ack_write h -> Some h | Messages.Ack_read _ -> None)
          acks
      in
      match
        Quorum.find_help
          ~threshold:(Params.help_refresh_threshold params)
          helps
      with
      | Some _ -> complete t c ~value:(Value.int cl.op) ~ok:true
      | None ->
        t.clients.(c) <- { cl with stage = 1 };
        broadcast t c
          (Messages.New_help { Messages.sn = Seqnum.zero; v = Value.int cl.op })
    end
    else begin
      let reads =
        List.filter_map
          (function
            | Messages.Ack_read (last, help) -> Some (last, help)
            | Messages.Ack_write _ -> None)
          acks
      in
      let threshold = Params.read_quorum params in
      match Quorum.find_cell ~threshold (List.map fst reads) with
      | Some cell -> complete t c ~value:cell.Messages.v ~ok:true
      | None -> (
        match Quorum.find_help ~threshold (List.map snd reads) with
        | Some cell -> complete t c ~value:cell.Messages.v ~ok:true
        | None -> inquire t (cl.stage + 1))
    end

  let create (cfg : Config.t) =
    let n = cfg.n in
    let params =
      Params.create_unchecked ~n ~f:cfg.f ~mode:Params.Async ()
    in
    let byz = Array.init n (fun s -> List.assoc_opt s cfg.byz) in
    let correct =
      Array.fold_left (fun k b -> if Option.is_none b then k + 1 else k) 0 byz
    in
    let links =
      Array.concat
        (List.init 2 (fun c ->
             let id = string_of_int client_ids.(c) in
             Array.init (2 * n) (fun k ->
                 let s = k mod n in
                 let sv = string_of_int s in
                 if k < n then
                   ("link:c" ^ id ^ "->s" ^ sv, Up ((c * n) + s))
                 else ("link:s" ^ sv ^ "->c" ^ id, Down ((c * n) + s)))))
    in
    Array.sort (fun (a, _) (b, _) -> String.compare a b) links;
    let by_label = Hashtbl.create (Array.length links) in
    Array.iter (fun (label, l) -> Hashtbl.replace by_label label l) links;
    let sh =
      {
        cfg;
        params;
        n;
        byz;
        target = min (n - (2 * cfg.f)) correct;
        links;
        by_label;
      }
    in
    let idle = { op = 0; inv = 0; stage = 0; serial = 0; wait = Finished } in
    let t =
      {
        sh;
        clock = 0;
        servers = Array.make n None;
        up = Array.make (2 * n) [];
        down = Array.make (2 * n) [];
        mailbox = Array.make 2 [];
        rounds = Array.make 2 0;
        clients = Array.make 2 idle;
        ticks = [];
        ops_rev = [];
        applied = [];
        corrupt_times = [];
        sent_count = Array.make Obs.Event.num_classes 0;
        sent_bytes = Array.make Obs.Event.num_classes 0;
        broadcasts = 0;
      }
    in
    start t writer 1;
    start t reader 1;
    t

  let running cl =
    match cl.wait with Finished -> false | Bcast _ | Acks _ -> true

  let client_active t = Array.exists running t.clients

  let stuck t =
    List.filter (fun c -> running t.clients.(c)) [ writer; reader ]
    |> List.map (fun c -> client_names.(c))

  let queue_empty t = function
    | Up i -> t.up.(i) = []
    | Down i -> t.down.(i) = []

  let enabled t =
    let delivers =
      Array.fold_right
        (fun (label, l) acc ->
          if queue_empty t l then acc else Deliver label :: acc)
        t.sh.links []
    in
    let ticks = List.mapi (fun i _ -> Tick i) t.ticks in
    let corrupts =
      if t.sh.cfg.menu = [] || not (client_active t) then []
      else
        List.mapi (fun i _ -> i) t.sh.cfg.menu
        |> List.filter (fun i -> not (List.mem i t.applied))
        |> List.map (fun i -> Corrupt i)
    in
    delivers @ ticks @ corrupts

  let reply t c s ~round body =
    let env = { Messages.round; server = s; body; span = Obs.Trace_ctx.none } in
    count_sent t
      (Messages.class_of_to_client body)
      ~copies:1
      ~bytes:(Messages.client_envelope_bytes env);
    let i = (c * t.sh.n) + s in
    t.down.(i) <- t.down.(i) @ [ env ]

  (* The delivery event of a client-to-server link: the receiving
     automaton first, then the broadcast's synchronized-delivery count. *)
  let deliver_up t i (serial, (env : Messages.server_envelope)) =
    let n = t.sh.n in
    let c = i / n and s = i mod n in
    (match t.sh.byz.(s) with
    | None ->
      let inst =
        match t.servers.(s) with
        | Some i -> { Server.last_val = i.last_val; helping = i.helping }
        | None -> { Server.last_val = Messages.bot_cell; helping = None }
      in
      t.servers.(s) <- Some inst;
      Option.iter (reply t c s ~round:env.round) (Server.respond inst env.body)
    | Some Config.Silent -> ()
    | Some (Config.Collude { sn; v }) ->
      reply t c s ~round:env.round
        (Byzantine.Behavior.collusion_reply
           ~cell:{ Messages.sn; v = Value.int v }
           env.body));
    if Option.is_none t.sh.byz.(s) then
      match t.clients.(c).wait with
      | Bcast b when b.serial = serial ->
        let confirmed = b.confirmed + 1 in
        if confirmed >= t.sh.target then resumed t c ~round:b.round
        else set_wait t c (Bcast { b with confirmed })
      | Bcast _ | Acks _ | Finished -> ()

  (* The delivery event of a server-to-client link: [Sim.Mailbox.push]
     hands the ack straight to a client blocked on the mailbox. *)
  let deliver_down t i env =
    let c = i / t.sh.n in
    match t.clients.(c).wait with
    | Acks { round; slots; filled } ->
      let slots = Array.copy slots in
      gather t c ~round slots (consider c ~round slots filled env)
    | Bcast _ | Finished -> t.mailbox.(c) <- t.mailbox.(c) @ [ env ]

  let fire_tick t (c, serial) =
    match t.clients.(c).wait with
    | Bcast b when b.serial = serial -> resumed t c ~round:b.round
    | Bcast _ | Acks _ | Finished -> ()

  let corrupt t = function
    | Config.Corrupt_server { server; sn; v } ->
      let cell = { Messages.sn; v = Value.int v } in
      t.servers.(server) <-
        Some { Server.last_val = cell; helping = Some cell }
    | Config.Corrupt_round { client; round } ->
      Array.iteri
        (fun c id ->
          if id = client then t.rounds.(c) <- abs round mod Net.round_modulus)
        client_ids
    | Config.Crash_recover { server } ->
      t.servers.(server) <-
        Some { Server.last_val = Messages.bot_cell; helping = None }
    | Config.Corrupt_reader _ | Config.Corrupt_writer_sn _ -> ()

  (* One tick per step, as in [Fibers.bump]. *)
  let apply t = function
    | Deliver label -> (
      match Hashtbl.find_opt t.sh.by_label label with
      | Some (Up i) -> (
        match t.up.(i) with
        | [] -> Error "no pending delivery on that link"
        | head :: rest ->
          t.clock <- t.clock + 1;
          t.up.(i) <- rest;
          deliver_up t i head;
          Ok ())
      | Some (Down i) -> (
        match t.down.(i) with
        | [] -> Error "no pending delivery on that link"
        | head :: rest ->
          t.clock <- t.clock + 1;
          t.down.(i) <- rest;
          deliver_down t i head;
          Ok ())
      | None -> Error "no pending delivery on that link")
    | Tick i -> (
      match if i < 0 then None else List.nth_opt t.ticks i with
      | None -> Error "no such unlabeled event"
      | Some tick ->
        t.clock <- t.clock + 1;
        t.ticks <- List.filteri (fun j _ -> j <> i) t.ticks;
        fire_tick t tick;
        Ok ())
    | Corrupt i -> (
      if List.mem i t.applied then Error "menu item already fired"
      else
        match if i < 0 then None else List.nth_opt t.sh.cfg.menu i with
        | None -> Error "no such menu item"
        | Some c ->
          t.clock <- t.clock + 1;
          t.applied <- i :: t.applied;
          t.corrupt_times <- t.clock :: t.corrupt_times;
          corrupt t c;
          Ok ())

  let ops t =
    List.stable_sort
      (fun (a : Oracles.History.op) b -> Sim.Vtime.compare a.inv b.inv)
      (List.rev t.ops_rev)

  let history t =
    let h = Oracles.History.create () in
    List.iter
      (fun (o : Oracles.History.op) ->
        Oracles.History.record h ~proc:o.proc ~kind:o.kind ~inv:o.inv
          ~resp:o.resp ?ts:o.ts ~ok:o.ok o.value)
      (List.rev t.ops_rev);
    h

  (* A fresh engine carrying this state's clock and the traffic counters
     [Net] would have accumulated. *)
  let engine t =
    let e = Sim.Engine.create ~rng:(Sim.Rng.create 42) () in
    Sim.Engine.advance_to e (Sim.Vtime.of_int t.clock);
    let m = Sim.Engine.metrics e in
    List.iter
      (fun cls ->
        let i = Obs.Event.class_index cls in
        let name = "msg.sent." ^ Obs.Event.class_name cls in
        Obs.Metrics.add m (name ^ ".count") t.sent_count.(i);
        Obs.Metrics.add m (name ^ ".bytes") t.sent_bytes.(i))
      Obs.Event.all_classes;
    Obs.Metrics.add m "ss.broadcasts" t.broadcasts;
    e

  let fingerprint t =
    let n = t.sh.n in
    let block = Buffer.create 256 in
    let blocks =
      Array.init n (fun s ->
          Buffer.clear block;
          (match t.sh.byz.(s) with
          | Some k -> add_byz block k
          | None -> Option.iter (add_instance block 0) t.servers.(s));
          Array.iteri
            (fun c id ->
              add_port_open block id;
              List.iter (fun (_, env) -> add_up block env) t.up.((c * n) + s);
              Buffer.add_char block '<';
              List.iter (add_down block) t.down.((c * n) + s))
            client_ids;
          Buffer.contents block)
    in
    canonical_digest ~cfg:t.sh.cfg ~blocks
      ~ports:
        (List.map
           (fun c ->
             {
               id = client_ids.(c);
               round = t.rounds.(c);
               mailbox = t.mailbox.(c);
             })
           [ writer; reader ])
      ~client_state:(fun b -> Buffer.add_string b "reg")
      ~applied:t.applied
      ~fibers:
        (List.map
           (fun c ->
             (client_names.(c), if running t.clients.(c) then 'r' else 'd'))
           [ writer; reader ])
      ~ops:(ops t) ~corrupt_times:t.corrupt_times
end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                           *)

type t = Fibers of Fibers.t | Data of Data.t

let create (cfg : Config.t) =
  match cfg.family with
  | Config.Regular -> Data (Data.create cfg)
  | Config.Atomic | Config.Mwmr -> Fibers (Fibers.create cfg)

let create_fibers cfg = Fibers (Fibers.create cfg)

let snapshot = function
  | Fibers _ -> None
  | Data d -> Some (Data (Data.copy d))

let config = function Fibers f -> f.cfg | Data d -> d.sh.cfg

let engine = function Fibers f -> f.engine | Data d -> Data.engine d

let history = function Fibers f -> f.history | Data d -> Data.history d

let corrupt_times = function
  | Fibers f ->
    List.rev_map Sim.Vtime.to_int f.corrupt_times |> List.sort Int.compare
  | Data d -> List.sort Int.compare d.corrupt_times

let client_active = function
  | Fibers f -> Fibers.client_active f
  | Data d -> Data.client_active d

let stuck = function Fibers f -> Fibers.stuck f | Data d -> Data.stuck d

let enabled = function Fibers f -> Fibers.enabled f | Data d -> Data.enabled d

let apply ?(strict = true) t mv =
  let result =
    match t with Fibers f -> Fibers.apply f mv | Data d -> Data.apply d mv
  in
  match result with
  | Ok () -> true
  | Error msg ->
    if strict then
      invalid_arg
        (Printf.sprintf "Mc.Sys.apply: %s (%s)" msg (move_to_string mv))
    else false

let fingerprint_raw_ex = function
  | Fibers f -> Fibers.fingerprint f
  | Data d -> Data.fingerprint d

let fingerprint_ex t =
  let d, ren, rep = fingerprint_raw_ex t in
  (Digest.to_hex d, ren, rep)

let fingerprint t =
  let d, _, _ = fingerprint_ex t in
  d

(* Rewrite every "s<digits>" token of a link label through the canonical
   renaming, so a sleep-set move recorded at one member of a symmetry
   class is comparable with the same move at another member. *)
let rename_servers_in_label ren label =
  let n = String.length label in
  let b = Buffer.create n in
  let is_digit c = c >= '0' && c <= '9' in
  let is_word c =
    is_digit c || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
  in
  let i = ref 0 in
  while !i < n do
    if
      Char.equal label.[!i] 's'
      && !i + 1 < n
      && is_digit label.[!i + 1]
      && (!i = 0 || not (is_word label.[!i - 1]))
    then begin
      let j = ref (!i + 1) and id = ref 0 in
      while !j < n && is_digit label.[!j] do
        id := (!id * 10) + Char.code label.[!j] - Char.code '0';
        incr j
      done;
      Buffer.add_char b 's';
      add_int b (ren !id);
      i := !j
    end
    else begin
      Buffer.add_char b label.[!i];
      incr i
    end
  done;
  Buffer.contents b

let canonical_move ren = function
  | Deliver label -> Deliver (rename_servers_in_label ren label)
  | (Tick _ | Corrupt _) as m -> m
