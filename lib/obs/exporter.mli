(** Live metrics endpoint: serves the latest published OpenMetrics
    exposition over a TCP or Unix-domain socket, from a dedicated domain.

    Protocol: connect, read to EOF — every connection receives the last
    [publish]ed string and is closed. Before the first publish, clients
    see an empty exposition (just [# EOF]). The executor's cost per
    sample is rendering plus one atomic store; the serving domain never
    touches engine state. *)

type address =
  | Tcp of string * int  (** host, port; port 0 picks a free one *)
  | Unix_path of string

(** ["PORT"], ["HOST:PORT"] or ["unix:PATH"]. A bare or empty host means
    127.0.0.1. *)
val address_of_string : string -> (address, string) result

val pp_address : Format.formatter -> address -> unit

type t

(** Bind, listen, and spawn the serving domain. For [Tcp (_, 0)] the
    returned handle carries the actual bound port; for [Unix_path] a
    stale socket file from a dead process is unlinked first. *)
val start : address -> (t, string) result

(** [publish t text] — atomically replace what new connections receive. *)
val publish : t -> string -> unit

(** Printable form of the bound address (the actual port for
    [Tcp (_, 0)]), accepted back by {!address_of_string}. *)
val endpoint : t -> string

(** Close the listen socket, join the serving domain, unlink a unix
    socket path. Idempotent. *)
val stop : t -> unit

(** [fetch address] — one scrape: connect, read to EOF. The client used
    by [pstream-obs scrape] and [top] and the CI smoke. *)
val fetch : address -> (string, string) result
