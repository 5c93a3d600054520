(** d-dimensional mesh topology with dimension-order routing.

    The paper's experiments run on 2-D meshes (the Parsytec GCel), but the
    underlying theory covers meshes of arbitrary dimension, so the topology
    layer is d-dimensional; 2-D remains the primary, convenience-supported
    case. Nodes are numbered in row-major order of their coordinates (for
    2-D: [row * cols + col], as on the GCel). Every mesh edge is modelled
    as two directed links, and congestion is accounted per directed link.

    Dimension-order routing adjusts the {e last} dimension first (for 2-D:
    first within the row — column index changes — then within the column),
    matching the wormhole router assumed by the paper's analysis. *)

type t

type node = int
(** Row-major node id. *)

type link = int
(** Directed link id in [0 .. num_links - 1]. *)

val create : rows:int -> cols:int -> t
(** [create ~rows ~cols] builds a 2-D mesh. Both sides must be >= 1. *)

val create_nd : dims:int array -> t
(** [create_nd ~dims] builds a mesh with the given side lengths (at least
    one dimension, every side >= 1). [create ~rows ~cols] is
    [create_nd ~dims:[| rows; cols |]]. *)

val dims : t -> int array
(** Side lengths (a copy). *)

val num_dims : t -> int

val rows : t -> int
(** First dimension of a 2-D mesh; raises [Invalid_argument] otherwise. *)

val cols : t -> int
(** Second dimension of a 2-D mesh; raises [Invalid_argument] otherwise. *)

val num_nodes : t -> int
val num_links : t -> int

val coords : t -> node -> int * int
(** [(row, col)] of a node of a 2-D mesh. *)

val coords_nd : t -> node -> int array
(** Coordinates of a node (a fresh array). *)

val node_at : t -> row:int -> col:int -> node
val node_at_nd : t -> int array -> node

val coord : t -> node -> int -> int
(** [coord t v k] is the node's coordinate in dimension [k]. Unlike
    {!coords_nd} it allocates nothing. *)

val stride : t -> int -> int
(** [stride t k] is the node-id step between neighbours along dimension
    [k]: a node's id is the sum over [k] of [coord t v k * stride t k]. *)

val link_endpoints : t -> link -> node * node
(** Source and destination node of a directed link. *)

val route : t -> src:node -> dst:node -> link list
(** The unique dimension-by-dimension order path from [src] to [dst],
    adjusting the last dimension first. [route ~src ~dst] with [src = dst]
    is []. *)

val iter_route : t -> src:node -> dst:node -> (link -> unit) -> unit
(** Allocation-free traversal of the same path (the simulator's hot path). *)

val route_into : t -> src:node -> dst:node -> link array -> int
(** [route_into t ~src ~dst buf] writes the route's links into [buf]
    (which must hold at least {!max_route_length} entries) and returns the
    hop count. Fully allocation-free: the simulator's send path reads the
    buffer back with a plain [for] loop instead of a closure per send. *)

val max_route_length : t -> int
(** Longest possible route: [sum (side - 1)] over all dimensions. *)

val distance : t -> node -> node -> int
(** Manhattan distance = length of [route]. *)
