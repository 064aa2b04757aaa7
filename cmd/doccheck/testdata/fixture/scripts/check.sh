#!/bin/sh
echo "== only go test lines are read: -run names"
go test ./internal/a -run 'TestUncalled|TestCalled$|TestGone'
go test ./internal/a -run '^TestCall$'
go test ./internal/a -run 'Called/Sub' -bench=Gone
go test ./internal/a -run '^$' -fuzz 'Test(Called|Uncalled)$'
