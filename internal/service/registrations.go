package service

// The service is spec-addressed: requests name protocols, model families,
// and analyses by registry name, and GET /v1/registry promises to
// enumerate everything runnable. Pull in every self-registering package
// here so any embedder of the service (cmd/afsimd, tests) serves the full
// five-axis registry without its own import litany.
import _ "amnesiacflood/internal/registry/all"
