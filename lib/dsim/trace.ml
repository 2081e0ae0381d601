type event =
  | Arrive of { node : int; msg : int }
  | Deliver of { node : int; msg : int }
  | Bcast of { node : int; msg : int; instance : int }
  | Rcv of { node : int; msg : int; instance : int }
  | Ack of { node : int; msg : int; instance : int }
  | Abort of { node : int; msg : int; instance : int }

type entry = { time : float; event : event }

type t = {
  mutable kept : entry array; (* oldest first; [retained] cells in use *)
  mutable retained : int;
  mutable recorded : int;
  mutable subscribers : (entry -> unit) array; (* registration order *)
  mutable live : bool; (* anything to do in [record] beyond the count? *)
  enabled : bool;
}

let create ?(enabled = true) () =
  let live = enabled in
  { kept = [||]; retained = 0; recorded = 0; subscribers = [||]; live; enabled }

let enabled t = t.enabled

(* Subscription is rare (a handful per run); the array copy keeps the
   per-record dispatch below allocation-free. *)
let subscribe t f =
  t.subscribers <- Array.append t.subscribers [| f |];
  t.live <- true

(* Append to the kept entries, doubling their array when it is full. *)
let keep t entry =
  let n = t.retained in
  if n = Array.length t.kept then
    t.kept <- Array.append t.kept (Array.make (Int.max 16 n) entry);
  t.kept.(n) <- entry;
  t.retained <- n + 1

let record t ~time event =
  t.recorded <- t.recorded + 1;
  (* Dispatch is guarded so a disabled, subscriber-free trace — the
     benchmark configuration — allocates nothing here: no entry record,
     no closure. *)
  if t.live then begin
    let entry = { time; event } in
    if t.enabled then keep t entry;
    (* Notify in registration order so downstream consumers see a stable
       sequence regardless of how many observers attach. *)
    let subs = t.subscribers in
    for i = 0 to Array.length subs - 1 do
      subs.(i) entry
    done
  end

let length t = t.retained

let recorded t = t.recorded

let iter t f =
  for i = 0 to t.retained - 1 do
    f t.kept.(i)
  done

let entries t = List.init t.retained (Array.get t.kept)

let pp_event ppf = function
  | Arrive { node; msg } -> Fmt.pf ppf "arrive(m%d)@%d" msg node
  | Deliver { node; msg } -> Fmt.pf ppf "deliver(m%d)@%d" msg node
  | Bcast { node; msg; instance } ->
      Fmt.pf ppf "bcast(m%d)@%d#i%d" msg node instance
  | Rcv { node; msg; instance } ->
      Fmt.pf ppf "rcv(m%d)@%d#i%d" msg node instance
  | Ack { node; msg; instance } ->
      Fmt.pf ppf "ack(m%d)@%d#i%d" msg node instance
  | Abort { node; msg; instance } ->
      Fmt.pf ppf "abort(m%d)@%d#i%d" msg node instance

let pp_entry ppf { time; event } = Fmt.pf ppf "%10.4f  %a" time pp_event event

let pp ppf t = Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_entry) (entries t)
