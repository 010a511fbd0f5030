package circuit

// Load exposes the Bristol parser to the external tests.
var Load = load
