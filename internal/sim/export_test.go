package sim

// ByNodeMin exposes byNodeMin to the external tests, so FuzzEngineSlot's
// filler listeners keep reaching the node-order delivery pass if the cut
// moves.
const ByNodeMin = byNodeMin
