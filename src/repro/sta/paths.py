"""Worst-path extraction per unique endpoint.

The paper's design-level metrics (Sec. V, eq. 11, Figs. 12-14) are
built on "the worst case paths connected to a unique endpoint": for
every flip-flop data pin and every output port, the single
maximum-arrival path feeding it.

Extraction is array work over what :func:`~repro.sta.engine.analyze`
returns.  One vectorized pass picks each net's realizing incoming arc:
the arc maximizing ``arrival[src] + arc_delay``, the lowest arc index
on ties.  Every endpoint then walks back along those picks, all of them
one step per iteration, and a path ending at a launch net gets the
flip-flop's clock->Q step first.  The result is a :class:`WorstPaths`:
per path a run of steps (CSR offsets); per step its delay, slew, load,
launch flag and six names, as indices into one table of the names the
paths use.  :meth:`WorstPaths.to_arrays` is their stored form, part of
each synthesis run's ``synth`` artifact, and
:func:`~repro.sta.statistics.design_statistics` reads them directly.  The
object model (:class:`TimingPath` of :class:`PathStep`) is built only
for the paths a caller reads: an index, a slice or an iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TimingError
from repro.sta.engine import TimingResult
from repro.sta.graph import Endpoint

_TOLERANCE = 1e-9

#: The six names of a step: the columns of :attr:`WorstPaths.names`,
#: in :class:`PathStep` field order.
STEP_NAMES = ("instance", "cell_name", "related_pin", "out_pin", "input_net", "output_net")

#: Per-net pick codes that are not an arc index: a source net (no
#: incoming arc), a net whose incoming arcs are all ``-inf``/``nan``,
#: and a net whose best incoming arc falls short of its arrival.
_SOURCE, _NO_FINITE, _INCONSISTENT = -1, -2, -3


@dataclass(frozen=True)
class PathStep:
    """One cell traversal on a path."""

    instance: str
    cell_name: str
    related_pin: str
    out_pin: str
    input_net: str
    output_net: str
    #: Arc delay as timed (ns).
    delay: float
    #: Input slew used for the LUT lookup (ns).
    slew: float
    #: Output load used for the LUT lookup (pF).
    load: float
    #: True for the launching flip-flop's clock->Q step.
    is_launch: bool = False


@dataclass
class TimingPath:
    """A worst path ending at one endpoint."""

    endpoint: Endpoint
    steps: List[PathStep]
    arrival: float
    required: float

    @property
    def slack(self) -> float:
        return self.required - self.arrival

    @property
    def depth(self) -> int:
        """Number of cells on the path (launching FF included)."""
        return len(self.steps)


@dataclass(frozen=True, eq=False)
class WorstPaths:
    """The worst path of each endpoint, as arrays.

    Per path ``i`` (endpoint order): its :class:`Endpoint` fields, its
    arrival and required times, and its steps
    ``offsets[i]:offsets[i + 1]``, launch step first.  Per step: its
    delay, slew and load, whether it is the launch, and its
    :data:`STEP_NAMES` as a row of ``names``, indices into ``strings``
    (the sorted names the paths use).  Indexing, slicing and iterating
    build :class:`TimingPath` objects; ``==`` compares the arrays.
    """

    endpoint_nets: np.ndarray
    endpoint_kinds: np.ndarray
    endpoint_names: np.ndarray
    setups: np.ndarray
    arrival: np.ndarray
    required: np.ndarray
    offsets: np.ndarray
    delay: np.ndarray
    slew: np.ndarray
    load: np.ndarray
    launch: np.ndarray
    names: np.ndarray
    strings: np.ndarray

    def __len__(self) -> int:
        return self.endpoint_nets.size

    @property
    def depths(self) -> np.ndarray:
        """Cells per path (launching flip-flop included)."""
        return np.diff(self.offsets)

    def path(self, index: int) -> TimingPath:
        """Path ``index`` as a :class:`TimingPath`."""
        index = range(len(self))[index]
        start, stop = self.offsets[index:index + 2].tolist()
        steps = [
            PathStep(*names, delay, slew, load, launch)
            for names, delay, slew, load, launch in zip(
                self.strings[self.names[start:stop]].tolist(),
                self.delay[start:stop].tolist(),
                self.slew[start:stop].tolist(),
                self.load[start:stop].tolist(),
                self.launch[start:stop].tolist(),
            )
        ]
        endpoint = Endpoint(
            int(self.endpoint_nets[index]),
            str(self.endpoint_kinds[index]),
            str(self.endpoint_names[index]),
            float(self.setups[index]),
        )
        return TimingPath(
            endpoint, steps, float(self.arrival[index]), float(self.required[index])
        )

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TimingPath, List[TimingPath]]:
        if isinstance(index, slice):
            return [self.path(i) for i in range(len(self))[index]]
        return self.path(index)

    def __iter__(self) -> Iterator[TimingPath]:
        return (self.path(i) for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorstPaths):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _ARRAYS
        )

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The stored form: the arrays by field name, but the name
        table as NUL-terminated UTF-8 bytes and ``names`` as int32."""
        arrays = {name: getattr(self, name) for name in _ARRAYS}
        text = np.frombuffer(
            "".join(name + "\0" for name in self.strings.tolist()).encode("utf-8"),
            dtype=np.uint8,
        )
        if np.count_nonzero(text == 0) != self.strings.size:
            raise ValueError("a path name holds a NUL character")
        arrays["strings"] = text
        arrays["names"] = self.names.astype(np.int32)
        return arrays

    @staticmethod
    def from_arrays(arrays: Dict[str, np.ndarray]) -> "WorstPaths":
        """Rebuild paths stored with :meth:`to_arrays`; raises
        ``ValueError`` on missing, extra, mistyped or inconsistent
        arrays."""
        check_arrays(arrays, _ARRAYS, "paths")
        text = arrays["strings"].tobytes()
        if text[-1:] not in (b"", b"\0"):
            raise ValueError("unterminated paths name table")
        paths = WorstPaths(**{
            **arrays,
            "names": arrays["names"].astype(np.int64),
            "strings": np.array(text.decode("utf-8").split("\0")[:-1], dtype=str),
        })
        offsets, count = paths.offsets, len(paths)
        steps = int(offsets[-1]) if offsets.size else -1
        if (
            offsets.size != count + 1
            or offsets[0] != 0
            or np.any(np.diff(offsets) < 0)
            or any(
                getattr(paths, name).shape[0] != count
                for name in ("endpoint_kinds", "endpoint_names", "setups", "arrival", "required")
            )
            or any(
                getattr(paths, name).shape[0] != steps
                for name in ("delay", "slew", "load", "launch", "names")
            )
            or paths.names.shape[1] != len(STEP_NAMES)
            or (steps and not 0 <= paths.names.min() <= paths.names.max() < paths.strings.size)
        ):
            raise ValueError("inconsistent paths arrays")
        return paths


#: Every stored :class:`WorstPaths` array (:meth:`WorstPaths.to_arrays`):
#: its dtype kind and dimensions.
_ARRAYS: Dict[str, Tuple[str, int]] = {
    "endpoint_nets": ("i", 1),
    "endpoint_kinds": ("U", 1),
    "endpoint_names": ("U", 1),
    "setups": ("f", 1),
    "arrival": ("f", 1),
    "required": ("f", 1),
    "offsets": ("i", 1),
    "delay": ("f", 1),
    "slew": ("f", 1),
    "load": ("f", 1),
    "launch": ("b", 1),
    "names": ("i", 2),
    "strings": ("u", 1),
}


def check_arrays(
    arrays: Dict[str, np.ndarray], layout: Dict[str, Tuple[str, int]], what: str
) -> None:
    """Raise ``ValueError`` unless ``arrays`` holds exactly the arrays
    ``layout`` names, each of its dtype kind and dimensions."""
    if arrays.keys() != layout.keys():
        raise ValueError(f"{what} arrays {sorted(arrays)}")
    for name, (kind, ndim) in layout.items():
        if arrays[name].dtype.kind != kind or arrays[name].ndim != ndim:
            raise ValueError(f"{what} array {name}: {arrays[name].dtype}")


def _picks(result: TimingResult) -> np.ndarray:
    """Per net: the incoming arc that realized its arrival, or a pick
    code.  Of the arcs into a net, the one with the largest finite
    ``arrival[src] + arc_delay``, the lowest arc index on ties."""
    graph = result.graph
    n_nets, dst = len(graph.net_names), graph.arc_dst
    values = result.arrival[graph.arc_src] + result.arc_delay
    top = np.full(n_nets, -np.inf)
    np.fmax.at(top, dst, values)
    best = np.flatnonzero((values == top[dst]) & (values > -np.inf))
    first = np.full(n_nets, graph.n_arcs, dtype=np.int64)
    np.minimum.at(first, dst[best], best)
    picks = np.full(n_nets, _SOURCE, dtype=np.int64)
    picks[dst] = _NO_FINITE
    found = first < graph.n_arcs
    picks[found] = first[found]
    picks[found & (top < result.arrival - _TOLERANCE)] = _INCONSISTENT
    return picks


def _failure(code: int, net: str) -> str:
    if code == _NO_FINITE:
        return f"no finite incoming arc while backtracking at net {net}"
    return f"inconsistent arrivals while backtracking at net {net}"


def _string_table(
    columns: Sequence[Tuple[np.ndarray, Callable[[int], str]]],
) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted names a list of code columns uses, and each column's
    indices into them (one column per ``(codes, name of a code)``)."""
    names: List[str] = []
    indices = []
    for codes, name_of in columns:
        unique, inverse = np.unique(codes, return_inverse=True)
        indices.append(inverse + len(names))
        names.extend(name_of(code) for code in unique.tolist())
    strings, index = np.unique(np.array(names, dtype=str), return_inverse=True)
    return strings, index[np.stack(indices, axis=1)]


def _arc_paths(
    result: TimingResult, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The worst path into each net of ``starts`` as graph arc ids: CSR
    ``offsets`` and ``arcs`` (in path order, ``-1`` for a launch step),
    and the source net each path starts from."""
    graph = result.graph
    n_nets = len(graph.net_names)
    picks = _picks(result)
    count, net = starts.size, starts.copy()

    # walk every endpoint back one arc per iteration; ``trail[d]`` holds
    # the endpoints that took a d-th arc, and those arcs
    walking = np.arange(count)
    trail: List[Tuple[np.ndarray, np.ndarray]] = []
    failures: Dict[int, str] = {}
    while walking.size:
        if len(trail) >= n_nets + 2:
            for endpoint in walking.tolist():
                failures[endpoint] = "path backtracking did not terminate"
            break
        pick = picks[net[walking]]
        stepping = pick != _SOURCE
        walking, pick = walking[stepping], pick[stepping]
        broken = pick < 0
        if broken.any():
            for endpoint, code in zip(walking[broken].tolist(), pick[broken].tolist()):
                failures[endpoint] = _failure(code, graph.net_names[net[endpoint]])
            walking, pick = walking[~broken], pick[~broken]
        trail.append((walking, pick))
        net[walking] = graph.arc_src[pick]
    if failures:
        # the error the endpoint-by-endpoint walk meets first
        raise TimingError(failures[min(failures)])

    # a path that ends at a launch net starts with the clock->Q step
    launched = np.flatnonzero(np.isin(net, graph.launch_q))
    lengths = np.zeros(count, dtype=np.int64)
    for walked, _ in trail:
        lengths[walked] += 1
    lengths[launched] += 1
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    arcs = np.full(int(offsets[-1]), -1, dtype=np.int64)
    for depth, (walked, pick) in enumerate(trail):
        arcs[offsets[walked + 1] - 1 - depth] = pick
    return offsets, arcs, net


def extract_worst_paths(
    result: TimingResult, endpoints: Optional[List[Endpoint]] = None
) -> WorstPaths:
    """Worst path per unique endpoint (all endpoints by default)."""
    graph = result.graph
    design, n_nets = graph.design, len(graph.net_names)
    chosen = endpoints if endpoints is not None else graph.endpoints
    starts = np.array([endpoint.net_id for endpoint in chosen], dtype=np.int64)
    offsets, arcs, sources = _arc_paths(result, starts)
    launch = arcs < 0
    timed = arcs[~launch]
    q_nets = sources[np.isin(sources, graph.launch_q)]
    src, dst = graph.arc_src[timed], graph.arc_dst[timed]

    def per_step(on_arcs: np.ndarray, on_launches) -> np.ndarray:
        values = np.empty(arcs.size, dtype=np.result_type(on_arcs, on_launches))
        values[~launch] = on_arcs
        values[launch] = on_launches
        return values

    owner = per_step(graph.arc_owners[timed], design.driver[q_nets])
    # a pin code is family * width + slot; slot ``width - 1`` stands for
    # the launch (clock pin -> first output)
    width = 1 + max((len(layout.arc_outputs) for layout in design.layouts), default=0)
    pin = design.family_ids[owner] * width + per_step(graph.arc_slots[timed], width - 1)
    layouts, instance_names, cell_names = design.layouts, design.names, graph.cells.names

    def related_pin(code: int) -> str:
        layout, slot = layouts[code // width], code % width
        return layout.function.clock_pin if slot == width - 1 else layout.arc_inputs[slot]

    def out_pin(code: int) -> str:
        layout, slot = layouts[code // width], code % width
        return layout.function.output_pins[0] if slot == width - 1 else layout.arc_outputs[slot]

    def net_name(code: int) -> str:
        # code ``n_nets`` is the clock, a launch step's input net
        return graph.compiled.clock if code == n_nets else graph.net_names[code]

    strings, names = _string_table([
        (owner, instance_names.__getitem__),
        (graph.cell_ids[owner], cell_names.__getitem__),
        (pin, related_pin),
        (pin, out_pin),
        (per_step(src, n_nets), net_name),
        (per_step(dst, q_nets), net_name),
    ])
    launch_delays = np.array([result.launches[q].delay for q in q_nets.tolist()])
    setups = np.array([endpoint.setup for endpoint in chosen], dtype=float)
    return WorstPaths(
        endpoint_nets=starts,
        endpoint_kinds=np.array([endpoint.kind for endpoint in chosen], dtype=str),
        endpoint_names=np.array([endpoint.name for endpoint in chosen], dtype=str),
        setups=setups,
        arrival=result.arrival[starts],
        required=result.effective_period - setups,
        offsets=offsets,
        delay=per_step(result.arc_delay[timed], launch_delays),
        slew=per_step(result.slew[src], graph.config.clock_slew),
        load=per_step(graph.loads[dst], graph.loads[q_nets]),
        launch=launch,
        names=names,
        strings=strings,
    )


def worst_path(result: TimingResult) -> TimingPath:
    """The single most critical path of the design."""
    return extract_worst_paths(result, [result.worst_endpoint()])[0]


def depth_histogram(paths: WorstPaths) -> Dict[int, int]:
    """Path count per depth (paper Fig. 12)."""
    depths, counts = np.unique(paths.depths, return_counts=True)
    return dict(zip(depths.tolist(), counts.tolist()))
