from .cli import main  # pragma: no cover - the python -m pdcg entry point

main()  # pragma: no cover
